package site

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// fdWaker is a timerfd read through the runtime's netpoller, whose
// descriptor wake-ups are not rounded to milliseconds as its timer
// wake-ups are.
type fdWaker struct {
	fd uintptr // kept raw: (*os.File).Fd would set the descriptor blocking
	f  *os.File
}

// newWaker falls back to the portable waker when the process is out of
// descriptors.
func newWaker() waker {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newTimerWaker()
	}
	return &fdWaker{fd: fd, f: os.NewFile(fd, "timerfd")}
}

func (w *fdWaker) arm(d time.Duration) {
	// {it_interval, it_value}, relative: one shot, d from now. A zero
	// it_value would disarm, so an instant already past is armed 1 ns out.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(max(d, 1)))}
	// Raw: the call never blocks, and arm runs under the link's mutex, which
	// is no place to hand the P back to the scheduler.
	syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0) //nolint:errcheck // fails only on a bad descriptor or address
}

func (w *fdWaker) wait() bool {
	var expirations [8]byte
	_, err := w.f.Read(expirations[:])
	return err == nil
}

func (w *fdWaker) close() { w.f.Close() }
