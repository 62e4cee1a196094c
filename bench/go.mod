module termproto/bench

go 1.24

require termproto v0.0.0

replace termproto => ../
