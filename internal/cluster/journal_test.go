package cluster

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"iustitia/internal/packet"
)

// sliceJournal is the journal as it was before the ring — a slice shifted
// down on every trim and every overflow — kept as the oracle the ring is
// checked against.
type sliceJournal struct {
	entries []journalEntry
	limit   int
}

func (o *sliceJournal) push(e journalEntry) (dropped int) {
	if o.limit <= 0 {
		return 0
	}
	if len(o.entries) >= o.limit {
		dropped = len(o.entries) - o.limit + 1
		o.entries = append(o.entries[:0], o.entries[dropped:]...)
	}
	o.entries = append(o.entries, e)
	return dropped
}

func (o *sliceJournal) trim(acked uint64) {
	i := 0
	for i < len(o.entries) && o.entries[i].seq <= acked {
		i++
	}
	if i > 0 {
		o.entries = append(o.entries[:0], o.entries[i:]...)
	}
}

func (o *sliceJournal) drain() []journalEntry {
	out := o.entries
	o.entries = nil
	return out
}

// TestJournalRingMatchesSlice drives the ring and the slice oracle with
// the same random interleaving of append, ack-trim, replay iteration and
// drain, at caps that wrap constantly (1, 2, 3), at exactly the cap, and
// with journaling disabled, and demands identical contents and identical
// drop counts after every step.
func TestJournalRingMatchesSlice(t *testing.T) {
	disabled := (&Router{cfg: RouterConfig{JournalCap: -1}}).journalCap()
	if disabled != 0 {
		t.Fatalf("negative JournalCap resolves to cap %d, want 0 (disabled)", disabled)
	}
	for _, limit := range []int{disabled, 1, 2, 3, 7, 64} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ring, oracle := newJournal(limit), &sliceJournal{limit: limit}
			ringDropped, oracleDropped := 0, 0
			seq := uint64(0)
			same := func(step int, op string) {
				t.Helper()
				if ring.len() != len(oracle.entries) {
					t.Fatalf("cap %d seed %d step %d (%s): ring holds %d entries, oracle %d",
						limit, seed, step, op, ring.len(), len(oracle.entries))
				}
				// In-order iteration, as replayLocked walks it.
				for i := range oracle.entries {
					if got, want := ring.at(i), oracle.entries[i]; got.seq != want.seq || got.pkt.Time != want.pkt.Time {
						t.Fatalf("cap %d seed %d step %d (%s): entry %d is seq %d, oracle has %d",
							limit, seed, step, op, i, got.seq, want.seq)
					}
				}
				if ringDropped != oracleDropped {
					t.Fatalf("cap %d seed %d step %d (%s): ring dropped %d, oracle %d",
						limit, seed, step, op, ringDropped, oracleDropped)
				}
			}
			for step := 0; step < 2000; step++ {
				switch r := rng.Intn(100); {
				case r < 70:
					// Bursts longer than the cap, so overflow-drop runs
					// through several wrap-arounds between trims.
					for n := 1 + rng.Intn(2*limit+2); n > 0; n-- {
						seq++
						e := journalEntry{seq: seq, pkt: packet.Packet{Time: time.Duration(seq)}}
						ringDropped += ring.push(e)
						oracleDropped += oracle.push(e)
					}
					same(step, "append")
				case r < 95:
					// Anywhere from below the oldest entry to past the newest.
					acked := uint64(0)
					if span := int64(seq) + 2; span > 0 {
						acked = uint64(rng.Int63n(span))
					}
					if rng.Intn(3) > 0 && seq > uint64(limit) {
						acked = seq - uint64(rng.Intn(limit+1))
					}
					ring.trim(acked)
					oracle.trim(acked)
					same(step, fmt.Sprintf("trim %d", acked))
				default:
					got, want := ring.drain(), oracle.drain()
					if len(got) != len(want) {
						t.Fatalf("cap %d seed %d step %d: drain returned %d entries, oracle %d", limit, seed, step, len(got), len(want))
					}
					for i := range want {
						if got[i].seq != want[i].seq {
							t.Fatalf("cap %d seed %d step %d: drained entry %d is seq %d, oracle has %d", limit, seed, step, i, got[i].seq, want[i].seq)
						}
					}
					same(step, "drain")
				}
			}
		}
	}
}

// discardListener accepts connections and throws away what they carry: a
// node that costs the process under test nothing.
func discardListener(tb testing.TB) net.Listener {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				_, _ = io.Copy(io.Discard, c)
				c.Close()
			}()
		}
	}()
	return l
}

func benchPacket() packet.Packet {
	return packet.Packet{
		Tuple:   packet.FiveTuple{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2}, SrcPort: 4242, DstPort: 443, Transport: packet.TCP},
		Flags:   packet.FlagACK,
		Payload: make([]byte, 128),
	}
}

// BenchmarkSendToNodeFullJournal times the router's per-packet hand-off to
// a node whose journal is full and never acked — every send drops the
// oldest entry. The cost must not depend on the cap (it was one memmove
// of the whole journal per packet when the journal was a slice).
func BenchmarkSendToNodeFullJournal(b *testing.B) {
	for _, limit := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("cap=%d", limit), func(b *testing.B) {
			sink := discardListener(b)
			r, err := NewRouter(RouterConfig{
				Nodes:      []NodeConfig{{Name: "a", Addr: sink.Addr().String(), StatusAddr: "127.0.0.1:1"}},
				Listeners:  []net.Listener{discardListener(b)},
				JournalCap: limit,
			})
			if err != nil {
				b.Fatal(err)
			}
			// Never started: no probe, so no ack ever trims the journal.
			s := r.senders["a"]
			pkt := benchPacket()
			for i := 0; i < limit; i++ {
				if err := r.sendToNode(s, &pkt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.sendToNode(s, &pkt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := s.closeConn(); err != nil {
				b.Fatal(err)
			}
			if st := r.Stats(); st.Journaled != limit || st.JournalDropped != b.N {
				b.Fatalf("journaled %d dropped %d, want %d and %d", st.Journaled, st.JournalDropped, limit, b.N)
			}
		})
	}
}

// TestRouteAllocRegression pins what routing one packet allocates on a
// healthy two-node ring: nothing. The health table is read through the
// prober's published view, the candidate walk fills a stack buffer, the
// journal is a preallocated ring and the client appends the frame to a
// batch buffer it reuses. Run without -race (the detector allocates).
func TestRouteAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	cfg := RouterConfig{
		Policy:    PolicyRequeue,
		Listeners: []net.Listener{discardListener(t)},
		// One probe at start, then none while allocations are counted.
		Probe: ProbeConfig{Interval: time.Hour, Timeout: time.Second},
	}
	for _, name := range []string{"a", "b"} {
		status := newFakeStatusNode(t, name)
		defer status.close()
		cfg.Nodes = append(cfg.Nodes, NodeConfig{Name: name, Addr: discardListener(t).Addr().String(), StatusAddr: status.addr()})
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer drainRouter(t, r)
	waitAvailable(t, r, "a", "b")

	pkt := benchPacket()
	next := func() {
		pkt.Tuple.SrcPort++ // walk the flows across both owners
		r.route(&pkt)
	}
	// Past the journal cap, so buffers are grown, both connections are
	// dialed and the ring is in its steady drop-oldest state.
	for i := 0; i < 3*DefaultJournalCap; i++ {
		next()
	}
	if allocs := testing.AllocsPerRun(2000, next); allocs > 0 {
		t.Errorf("route allocates %.2f objects per packet, want 0", allocs)
	}
	if st := r.Stats(); st.Shed != 0 || st.PerNode["a"] == 0 || st.PerNode["b"] == 0 {
		t.Errorf("packets were shed or not spread over both nodes: %+v", st)
	}
}
