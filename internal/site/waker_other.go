//go:build !linux

package site

func newWaker() waker { return newTimerWaker() }
