package packet

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"iustitia/internal/corpus"
)

func wireTestPacket() Packet {
	return Packet{
		Tuple: FiveTuple{
			SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
			SrcPort: 40000, DstPort: 443, Transport: TCP,
		},
		Time:    1234567 * time.Microsecond,
		Flags:   FlagACK | FlagPSH,
		Payload: []byte("sixteen payload!"),
	}
}

func TestWireRoundTrip(t *testing.T) {
	cases := []Packet{
		wireTestPacket(),
		{Tuple: wireTestPacket().Tuple, Time: 0, Flags: FlagFIN},                          // no payload
		{Tuple: FiveTuple{Transport: UDP}, Time: time.Hour, Payload: bytes.Repeat([]byte{7}, MaxWirePayload)}, // max payload
	}
	for i, want := range cases {
		wire, err := AppendWire(nil, &want)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		got, err := DecodeWire(wire)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.Tuple != want.Tuple || got.Time != want.Time || got.Flags != want.Flags ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("case %d: round trip mismatch: got %+v want %+v", i, got, want)
		}
	}
}

func TestWireDecodeCopiesPayload(t *testing.T) {
	p := wireTestPacket()
	wire, err := AppendWire(nil, &p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWire(wire)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		wire[i] = 0xFF
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Error("decoded payload aliases the input buffer")
	}
}

// TestWireDecodeAlias pins the other half: DecodeWireAlias parses exactly
// what DecodeWire does, allocates nothing, and its payload is the caller's
// bytes.
func TestWireDecodeAlias(t *testing.T) {
	p := wireTestPacket()
	wire, err := AppendWire(nil, &p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWireAlias(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tuple != p.Tuple || got.Time != p.Time || got.Flags != p.Flags || !bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("alias decode mismatch: got %+v want %+v", got, p)
	}
	if &got.Payload[0] != &wire[len(wire)-len(p.Payload)] {
		t.Error("DecodeWireAlias copied the payload")
	}
	if allocs := testing.AllocsPerRun(100, func() { DecodeWireAlias(wire) }); allocs != 0 {
		t.Errorf("DecodeWireAlias allocates %v times per packet", allocs)
	}
	if _, err := DecodeWireAlias(wire[:len(wire)-1]); !errors.Is(err, ErrBadWire) {
		t.Errorf("truncated input: err = %v, want ErrBadWire", err)
	}
}

func TestWireEncodeRejects(t *testing.T) {
	bad := wireTestPacket()
	bad.Time = -1
	if _, err := AppendWire(nil, &bad); !errors.Is(err, ErrBadWire) {
		t.Errorf("negative time: err = %v, want ErrBadWire", err)
	}
	huge := wireTestPacket()
	huge.Payload = make([]byte, MaxWirePayload+1)
	if _, err := AppendWire(nil, &huge); !errors.Is(err, ErrBadWire) {
		t.Errorf("oversized payload: err = %v, want ErrBadWire", err)
	}
}

func TestWireDecodeRejectsMalformed(t *testing.T) {
	p := wireTestPacket()
	wire, err := AppendWire(nil, &p)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation must fail cleanly.
	for n := 0; n < len(wire); n++ {
		if _, err := DecodeWire(wire[:n]); !errors.Is(err, ErrBadWire) {
			t.Fatalf("truncated to %d bytes: err = %v, want ErrBadWire", n, err)
		}
	}
	// Trailing garbage is rejected, not silently ignored.
	if _, err := DecodeWire(append(append([]byte(nil), wire...), 0)); !errors.Is(err, ErrBadWire) {
		t.Errorf("trailing byte: err = %v, want ErrBadWire", err)
	}
	// A bad transport in the tuple is rejected.
	broken := append([]byte(nil), wire...)
	broken[12] = 99
	if _, err := DecodeWire(broken); !errors.Is(err, ErrBadWire) {
		t.Errorf("bad transport: err = %v, want ErrBadWire", err)
	}
}

// TestReadTraceHostileCountAllocation: a tiny input declaring the maximum
// flow count must not allocate anywhere near the declared size before
// parsing fails.
func TestReadTraceHostileCountAllocation(t *testing.T) {
	hostile := hugeCountHeader()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := ReadTrace(bytes.NewReader(hostile)); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("hostile header parsed: err = %v", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
		t.Errorf("hostile 1<<26-flow header allocated %d bytes; want bounded growth", grew)
	}
}

// TestReadTraceLargeDeclaredCountStillParses: traces beyond the prealloc
// hint still parse correctly — the hint bounds only the initial capacity.
func TestReadTraceLargeDeclaredCountStillParses(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Flows = 50
	cfg.Duration = 2 * time.Second
	cfg.MaxFlowBytes = 1 << 10
	trace, err := Generate(cfg, corpus.NewGenerator(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := trace.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Flows) != len(trace.Flows) || len(restored.Packets) != len(trace.Packets) {
		t.Errorf("round trip lost data: %d/%d flows, %d/%d packets",
			len(restored.Flows), len(trace.Flows), len(restored.Packets), len(trace.Packets))
	}
}
