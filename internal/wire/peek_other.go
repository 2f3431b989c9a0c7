//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package wire

import "net"

// peerGone cannot probe a socket without blocking on this platform: a
// pooled connection the server closed surfaces on the call instead.
func peerGone(net.Conn) bool { return false }
