// Package wire carries the replica wire protocol's request/response
// envelopes over real TCP, so mobile nodes deploy as separate processes.
// It realizes the replica.Transport seam twice: Server feeds inbound frames
// to a replica.BaseServer's ServeFrame entry point, and Transport is a
// pooling client that replica.DialTransport plugs a mobile node into.
//
// Frames are length-prefixed envelopes — a small JSON header whose bulk
// fields (journals, transaction code, states) are binary blobs:
//
//	+---------+-------------------------------+----------------+
//	| version | payload length (uint32, BE)   | payload bytes  |
//	| 1 byte  | 4 bytes                       | length bytes   |
//	+---------+-------------------------------+----------------+
//
// The version byte (Version) lets either end reject a peer speaking a
// different framing before trusting the length field. docs/WIRE.md is the
// normative specification.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the framing protocol version byte. A frame whose first byte
// differs is rejected with ErrBadVersion before its length is trusted.
// Version 0x01 carried JSON-lines journals and JSON states; 0x02 carries
// them as binary blobs.
const Version byte = 0x02

// headerSize is the frame header length: version byte + 4-byte payload
// length.
const headerSize = 1 + 4

// DefaultMaxFrame caps payload size when a config leaves MaxFrame zero:
// big enough for a long disconnection period's journal, small enough that
// a corrupt or hostile length field cannot balloon memory.
const DefaultMaxFrame = 8 << 20

// ErrBadVersion reports a frame header with an unknown protocol version.
var ErrBadVersion = errors.New("wire: unknown protocol version")

// ErrFrameTooLarge reports a frame whose payload exceeds the configured
// maximum.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// writeFrame writes one framed payload with a single Write — header and
// payload in one segment. The frame is built in *buf, which a connection
// reuses across frames.
func writeFrame(w io.Writer, buf *[]byte, payload []byte) error {
	b := append((*buf)[:0], Version, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(b[1:], uint32(len(payload)))
	b = append(b, payload...)
	*buf = b
	_, err := w.Write(b)
	return err
}

// readFrame reads one framed payload, enforcing the version byte and the
// payload-size cap before allocating.
func readFrame(r io.Reader, maxFrame int) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != Version {
		return nil, fmt.Errorf("%w: 0x%02x (want 0x%02x)", ErrBadVersion, hdr[0], Version)
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if int64(n) > int64(maxFrame) {
		return nil, fmt.Errorf("%w: %d bytes (max %d)", ErrFrameTooLarge, n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
