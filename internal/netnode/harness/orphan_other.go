//go:build !linux

package harness

import "syscall"

// procAttr is nil off Linux, where there is no parent-death signal: a daemon
// whose parent dies without Stop lives on.
func procAttr() *syscall.SysProcAttr { return nil }
