//go:build !race

package site

const raceEnabled = false
