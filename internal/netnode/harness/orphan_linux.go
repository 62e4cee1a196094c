package harness

import "syscall"

// procAttr has the kernel SIGKILL a daemon when the thread that spawned it
// exits, so that a test binary or CLI dying without Stop (a panic, a
// timeout, os.Exit) leaves no daemon behind. The signal follows the
// spawning thread, not the process: spawn must not run on a goroutine that
// holds LockOSThread, whose thread exits with it.
func procAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
