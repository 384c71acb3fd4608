// Package ingest is Iustitia's network boundary: a framed packet-ingest
// server that feeds flow.ParallelEngine from TCP or unix-socket clients,
// engineered for the failure modes a real deployment hits — slow clients,
// torn frames, disconnects, overload, and crash-looping workers. It
// extends the DESIGN.md §6 overload model across the wire: every frame a
// client sends is accounted exactly once, so
//
//	Received == Admitted + Quarantined + Shed
//
// holds at all times, the transport-level twin of the engine's
// Admitted == Classified + Fallback + Dropped + Pending invariant.
package ingest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"iustitia/internal/packet"
)

// Frame format: a fixed self-delimiting header so a reader that lands in
// the middle of garbage can resynchronize by scanning for the magic:
//
//	[0] 'I'  [1] 'G'  [2] version (1 or 2)
//	[3:7]  payload length, uint32 BE
//	[7:11] crc32-IEEE of the payload, uint32 BE
//	[11:19] delivery sequence, uint64 BE   (version 2 only)
//	then   payload: one packet in the internal/packet wire encoding
//
// Version 2 frames carry a per-sender delivery sequence number used by
// the cluster router's replay journal: the receiver keeps a high-water
// mark and treats a frame at or below it as a duplicate, so replaying a
// journaled frame after a node crash can never double-count a packet.
// Version 1 frames (sequence 0) bypass deduplication entirely, keeping
// plain clients unchanged.
//
// A malformed frame — bad magic, bad version, implausible length, CRC
// mismatch, undecodable packet — is *quarantined*: the reader counts one
// event per contiguous run of bad bytes, skips forward to the next
// plausible header, and keeps the connection alive. One corrupt frame
// must cost one counter increment, not the whole connection.
const (
	frameMagic0       = 'I'
	frameMagic1       = 'G'
	frameVersion      = 1
	frameVersionSeq   = 2
	frameHeaderSize   = 11
	frameHeaderSeqLen = 8
)

// DefaultMaxFrame is the default bound on a frame's payload length: a
// maximum wire-encoded packet plus header slack. Headers declaring more
// are treated as garbage, so a hostile 4-byte length field cannot stall
// the reader waiting for gigabytes.
const DefaultMaxFrame = packet.MaxWirePayload + 64

// AppendFrame appends one framed packet to dst and returns the extended
// slice. The same buffer can be reused across calls to avoid allocation.
func AppendFrame(dst []byte, p *packet.Packet) ([]byte, error) {
	start := len(dst)
	dst = append(dst, frameMagic0, frameMagic1, frameVersion, 0, 0, 0, 0, 0, 0, 0, 0)
	dst, err := packet.AppendWire(dst, p)
	if err != nil {
		return dst[:start], err
	}
	body := dst[start+frameHeaderSize:]
	binary.BigEndian.PutUint32(dst[start+3:start+7], uint32(len(body)))
	binary.BigEndian.PutUint32(dst[start+7:start+11], crc32.ChecksumIEEE(body))
	return dst, nil
}

// AppendFrameSeq appends one version-2 framed packet carrying a delivery
// sequence number. seq must be non-zero: zero is the "no sequence"
// sentinel a version-1 frame reports.
func AppendFrameSeq(dst []byte, p *packet.Packet, seq uint64) ([]byte, error) {
	if seq == 0 {
		return dst, fmt.Errorf("ingest: sequence 0 is reserved for unsequenced frames")
	}
	start := len(dst)
	dst = append(dst, frameMagic0, frameMagic1, frameVersionSeq,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	dst, err := packet.AppendWire(dst, p)
	if err != nil {
		return dst[:start], err
	}
	hdrLen := frameHeaderSize + frameHeaderSeqLen
	body := dst[start+hdrLen:]
	binary.BigEndian.PutUint32(dst[start+3:start+7], uint32(len(body)))
	binary.BigEndian.PutUint32(dst[start+7:start+11], crc32.ChecksumIEEE(body))
	binary.BigEndian.PutUint64(dst[start+11:start+hdrLen], seq)
	return dst, nil
}

// frameScanner is the frame parser, shared by FrameReader and the server's
// connection reader. It looks at bytes someone else owns and holds only the
// resync state, so the two differ in nothing but who owns the buffer.
type frameScanner struct {
	max          int
	onQuarantine func()
	inGarbage    bool
	quarantined  int
}

// quarantine records one event per contiguous run of bad bytes. The run
// ends when the next valid frame decodes.
func (sc *frameScanner) quarantine() {
	if sc.inGarbage {
		return
	}
	sc.inGarbage = true
	sc.quarantined++
	if sc.onQuarantine != nil {
		sc.onQuarantine()
	}
}

// next parses the front of buf, quarantining and skipping malformed bytes
// until it reaches a valid frame or runs out. When need is zero, buf[:used]
// is the skipped garbage followed by one whole frame, and pkt (its payload
// aliasing buf) and seq are that frame's. Otherwise buf[:used] is garbage
// to discard and the frame starting at buf[used:] is undecided until it
// holds need bytes.
func (sc *frameScanner) next(buf []byte) (pkt packet.Packet, seq uint64, used, need int) {
	for ; ; used++ {
		rest := buf[used:]
		if len(rest) < frameHeaderSize {
			return packet.Packet{}, 0, used, frameHeaderSize
		}
		if rest[0] != frameMagic0 || rest[1] != frameMagic1 ||
			(rest[2] != frameVersion && rest[2] != frameVersionSeq) {
			sc.quarantine()
			continue
		}
		hdrLen := frameHeaderSize
		if rest[2] == frameVersionSeq {
			hdrLen += frameHeaderSeqLen
		}
		length := int(binary.BigEndian.Uint32(rest[3:7]))
		if length == 0 || length > sc.max {
			// Never trust a hostile length: skip one byte and rescan
			// rather than discarding what might be valid frames.
			sc.quarantine()
			continue
		}
		if len(rest) < hdrLen+length {
			return packet.Packet{}, 0, used, hdrLen + length
		}
		seq = 0
		if hdrLen > frameHeaderSize {
			seq = binary.BigEndian.Uint64(rest[frameHeaderSize:hdrLen])
			if seq == 0 {
				// A sequenced frame must carry a real sequence; zero is
				// the unsequenced sentinel and would corrupt dedup state.
				sc.quarantine()
				continue
			}
		}
		body := rest[hdrLen : hdrLen+length]
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(rest[7:11]) {
			sc.quarantine()
			continue
		}
		p, err := packet.DecodeWireAlias(body)
		if err != nil {
			sc.quarantine()
			continue
		}
		sc.inGarbage = false
		return p, seq, used + hdrLen + length, 0
	}
}

// FrameReader decodes framed packets from a byte stream with resync: bad
// bytes are quarantined and skipped instead of killing the stream. It owns
// its buffer and copies every payload out of it, so a packet it returns is
// the caller's to keep.
type FrameReader struct {
	r       io.Reader
	sc      frameScanner
	buf     []byte // buf[rd:wr] is read but not yet parsed
	rd, wr  int
	readErr error // came with the last bytes read; reported once they are parsed
	lastSeq uint64
}

// NewFrameReader wraps r. maxFrame bounds the payload length a header may
// declare (<= 0 selects DefaultMaxFrame); onQuarantine, when non-nil, is
// invoked once per quarantine event.
func NewFrameReader(r io.Reader, maxFrame int, onQuarantine func()) *FrameReader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &FrameReader{
		r:   r,
		sc:  frameScanner{max: maxFrame, onQuarantine: onQuarantine},
		buf: make([]byte, readBufSize(maxFrame)),
	}
}

// readBufSize is the buffer a frame reader needs: one maximal frame, so a
// frame that starts at the front of the buffer always fits.
func readBufSize(maxFrame int) int { return frameHeaderSize + frameHeaderSeqLen + maxFrame }

// LastSeq returns the delivery sequence carried by the most recent frame
// Next returned: zero for a version-1 frame, non-zero for version 2.
func (fr *FrameReader) LastSeq() uint64 { return fr.lastSeq }

// Quarantined returns how many quarantine events the reader has recorded:
// contiguous runs of garbage, torn frames, CRC mismatches, undecodable
// packets.
func (fr *FrameReader) Quarantined() int { return fr.sc.quarantined }

// Next returns the next valid packet, quarantining and skipping any
// malformed bytes in between. It returns an error only when the stream
// itself ends or fails (io.EOF, deadline expiry, reset); a torn frame at
// the end of the stream is quarantined before the error is returned.
func (fr *FrameReader) Next() (packet.Packet, error) {
	for {
		pkt, seq, used, need := fr.sc.next(fr.buf[fr.rd:fr.wr])
		fr.rd += used
		if need == 0 {
			if pkt.Payload != nil {
				pkt.Payload = append([]byte(nil), pkt.Payload...)
			}
			fr.lastSeq = seq
			return pkt, nil
		}
		if err := fr.fill(); err != nil {
			if fr.wr > fr.rd {
				// Stream over with part of a frame buffered: a torn frame.
				fr.sc.quarantine()
				fr.rd = fr.wr
			}
			return packet.Packet{}, err
		}
	}
}

// fill slides the unparsed bytes to the front of the buffer and reads more
// behind them. The scanner only asks for more while the frame at the front
// is shorter than the buffer, so there is always room.
func (fr *FrameReader) fill() error {
	if err := fr.readErr; err != nil {
		fr.readErr = nil
		return err
	}
	if fr.rd > 0 {
		fr.wr = copy(fr.buf, fr.buf[fr.rd:fr.wr])
		fr.rd = 0
	}
	for tries := 0; tries < maxEmptyReads; tries++ {
		n, err := fr.r.Read(fr.buf[fr.wr:])
		fr.wr += n
		if n > 0 {
			fr.readErr = err
			return nil
		}
		if err != nil {
			return err
		}
	}
	return io.ErrNoProgress
}

// maxEmptyReads is how many consecutive (0, nil) reads a reader tolerates
// before giving up with io.ErrNoProgress, as bufio does.
const maxEmptyReads = 100
