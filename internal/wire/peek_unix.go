//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package wire

import (
	"errors"
	"net"
	"syscall"
	"time"
)

// peerGone reports whether the peer has closed c (or sent data nobody
// asked for) without blocking and without consuming anything: one
// MSG_PEEK read on the non-blocking socket. A read with an expired
// deadline cannot serve as the probe — Go fails it before any read is
// tried.
func peerGone(c net.Conn) bool {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	c.SetReadDeadline(time.Time{})
	var perr error
	err = rc.Read(func(fd uintptr) bool {
		var b [1]byte
		_, _, perr = syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK)
		return true
	})
	// Pending bytes or EOF (perr nil) and a reset or any other failure
	// mean the connection is dead; EAGAIN means it is healthy and quiet.
	return err != nil || !errors.Is(perr, syscall.EAGAIN)
}
