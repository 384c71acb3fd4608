package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Standalone per-packet wire encoding, used by the networked ingest path
// (internal/ingest) to frame single packets over a stream. Unlike the
// trace-file format, which indexes packets against a flow table, this
// encoding is self-contained: every packet carries its full 5-tuple.
//
//	13-byte tuple (FiveTuple.Marshal), flags byte,
//	uvarint capture time (ns), uvarint payload length, payload bytes

// MaxWirePayload caps a single packet's payload on the wire, matching the
// trace-file reader's per-packet bound.
const MaxWirePayload = 64 << 10

// ErrBadWire is returned when a wire-encoded packet is malformed.
var ErrBadWire = errors.New("packet: malformed wire packet")

// AppendWire appends the wire encoding of p to dst and returns the
// extended slice.
func AppendWire(dst []byte, p *Packet) ([]byte, error) {
	if p.Time < 0 {
		return dst, fmt.Errorf("%w: negative capture time %v", ErrBadWire, p.Time)
	}
	if len(p.Payload) > MaxWirePayload {
		return dst, fmt.Errorf("%w: payload %d exceeds %d", ErrBadWire, len(p.Payload), MaxWirePayload)
	}
	tuple := p.Tuple.Marshal()
	dst = append(dst, tuple[:]...)
	dst = append(dst, byte(p.Flags))
	dst = binary.AppendUvarint(dst, uint64(p.Time))
	dst = binary.AppendUvarint(dst, uint64(len(p.Payload)))
	return append(dst, p.Payload...), nil
}

// DecodeWire parses one wire-encoded packet. The buffer must hold exactly
// one packet: short, oversized, or trailing-garbage inputs return an error
// wrapping ErrBadWire. The payload is copied, so the caller may reuse data.
func DecodeWire(data []byte) (Packet, error) {
	p, err := DecodeWireAlias(data)
	if err == nil && p.Payload != nil {
		p.Payload = append([]byte(nil), p.Payload...)
	}
	return p, err
}

// DecodeWireAlias is DecodeWire without the copy: the returned Payload is
// a sub-slice of data, valid only as long as the caller leaves data alone.
// The ingest server decodes this way into read buffers it owns; everyone
// who keeps the packet uses DecodeWire.
func DecodeWireAlias(data []byte) (Packet, error) {
	const fixed = 13 + 1 // tuple + flags
	if len(data) < fixed {
		return Packet{}, fmt.Errorf("%w: %d bytes is shorter than a header", ErrBadWire, len(data))
	}
	var wire [13]byte
	copy(wire[:], data[:13])
	tuple, err := unmarshalTuple(wire)
	if err != nil {
		return Packet{}, fmt.Errorf("%w: %v", ErrBadWire, err)
	}
	flags := Flags(data[13])
	rest := data[fixed:]
	when, n := binary.Uvarint(rest)
	if n <= 0 {
		return Packet{}, fmt.Errorf("%w: bad capture time", ErrBadWire)
	}
	if when > uint64(1<<62) {
		return Packet{}, fmt.Errorf("%w: implausible capture time %d", ErrBadWire, when)
	}
	rest = rest[n:]
	payloadLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return Packet{}, fmt.Errorf("%w: bad payload length", ErrBadWire)
	}
	if payloadLen > MaxWirePayload {
		return Packet{}, fmt.Errorf("%w: payload %d exceeds %d", ErrBadWire, payloadLen, MaxWirePayload)
	}
	rest = rest[n:]
	if uint64(len(rest)) != payloadLen {
		return Packet{}, fmt.Errorf("%w: declared payload %d, %d bytes follow", ErrBadWire, payloadLen, len(rest))
	}
	var payload []byte
	if payloadLen > 0 {
		payload = rest
	}
	return Packet{Tuple: tuple, Time: time.Duration(when), Flags: flags, Payload: payload}, nil
}
