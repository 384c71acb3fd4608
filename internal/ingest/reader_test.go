package ingest

import (
	"context"
	"errors"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/flow"
	"iustitia/internal/packet"
)

// pipeListener hands a server the far end of in-memory connections, so a
// test's Write arrives as exactly one Read (up to the reader's buffer) and
// no deadline or socket machinery allocates.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// dial returns the client end of a fresh connection the server has accepted.
func (l *pipeListener) dial(t testing.TB) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	select {
	case l.conns <- server:
	case <-time.After(5 * time.Second):
		t.Fatal("server never accepted the pipe connection")
	}
	return client
}

// poison is the onRecycle hook of the tests below: recycled read-buffer
// bytes are overwritten, so a payload alias kept too long reads 0xA5.
func poison(stale []byte) {
	if len(stale) == 0 {
		return
	}
	stale[0] = 0xA5
	for n := 1; n < len(stale); n *= 2 {
		copy(stale[n:], stale[:n])
	}
}

// framesOf encodes packets lo..hi-1 of testPacket, spread over flows
// flows, as one byte string of sequenced (seq0 > 0) or plain frames.
func framesOf(t testing.TB, lo, hi, flows int, seq0 uint64) []byte {
	t.Helper()
	var buf []byte
	for i := lo; i < hi; i++ {
		p := testPacket(i % flows)
		p.Time = time.Duration(i+1) * time.Millisecond
		var err error
		if seq0 > 0 {
			buf, err = AppendFrameSeq(buf, &p, seq0+uint64(i-lo))
		} else {
			buf, err = AppendFrame(buf, &p)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// stalledPipeServer is a server on a pipe listener whose workers wait on
// gate in PreProcess, so admission bounds are reached deterministically.
func stalledPipeServer(t *testing.T, overflow OverflowPolicy, perConn int) (*Server, *pipeListener, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	l := newPipeListener()
	s := startServer(t, Config{
		Engine:       newTestEngine(t, 2),
		Listeners:    []net.Listener{l},
		Workers:      2,
		PerConnQueue: perConn,
		Overflow:     overflow,
		PreProcess:   func(*packet.Packet) { <-gate },
	})
	return s, l, gate
}

// TestBigReadAgainstSmallCredit is the conservation law under batched
// admission: one read of 300 frames against PerConnQueue = 8, under each
// shedding policy. Exactly the credit's worth is admitted, the rest of the
// read is shed exactly once, and a disconnect happens once.
func TestBigReadAgainstSmallCredit(t *testing.T) {
	const frames, credit = 300, 8
	for _, policy := range []OverflowPolicy{OverflowShed, OverflowDisconnect} {
		t.Run(policy.String(), func(t *testing.T) {
			s, l, gate := stalledPipeServer(t, policy, credit)
			conn := l.dial(t)
			defer conn.Close()
			if _, err := conn.Write(framesOf(t, 0, frames, 16, 0)); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 5*time.Second, "the read to be accounted", func() bool {
				return accounted(s.Stats()) == frames
			})
			st := s.Stats()
			assertConservation(t, st)
			if st.Received != frames || st.Admitted != credit || st.Shed != frames-credit {
				t.Errorf("received %d admitted %d shed %d, want %d/%d/%d", st.Received, st.Admitted, st.Shed, frames, credit, frames-credit)
			}
			if depth, _ := s.QueueDepth(); depth > credit {
				t.Errorf("QueueDepth reports %d packets, more than were admitted", depth)
			}
			close(gate)
			waitFor(t, 5*time.Second, "workers to finish", func() bool {
				return s.processed.Load() == credit
			})

			// The credits are back, so under shed the connection goes on; under
			// disconnect it was cut at the first refusal and counted once.
			_, err := conn.Write(framesOf(t, frames, frames+credit, 16, 0))
			if policy == OverflowShed {
				if err != nil {
					t.Fatalf("write after shed: %v", err)
				}
				waitFor(t, 5*time.Second, "second read", func() bool { return s.Stats().Admitted == 2*credit })
			} else if err == nil {
				t.Error("connection still accepts writes after the disconnect policy cut it")
			}
			conn.Close()
			shutdownServer(t, s)
			st = s.Stats()
			assertConservation(t, st)
			if want := map[OverflowPolicy]int{OverflowShed: 0, OverflowDisconnect: 1}[policy]; st.Disconnected != want {
				t.Errorf("disconnected %d, want %d", st.Disconnected, want)
			}
		})
	}
}

// TestBigReadBlocksInOrder is the blocking half: 300 frames in one read
// against PerConnQueue = 8 all reach the engine, in per-flow arrival order,
// as the reader feeds the workers a credit's worth at a time.
func TestBigReadBlocksInOrder(t *testing.T) {
	const frames, credit, flows = 300, 8, 16
	var mu sync.Mutex
	last := map[packet.FiveTuple]time.Duration{}
	l := newPipeListener()
	s := startServer(t, Config{
		Engine:       newTestEngine(t, 4),
		Listeners:    []net.Listener{l},
		Workers:      2,
		PerConnQueue: credit,
		Batch:        3,
		PreProcess: func(p *packet.Packet) {
			mu.Lock()
			defer mu.Unlock()
			if p.Time <= last[p.Tuple] {
				t.Errorf("flow %v: packet at %v processed after %v", p.Tuple, p.Time, last[p.Tuple])
			}
			last[p.Tuple] = p.Time
		},
	})
	conn := l.dial(t)
	if _, err := conn.Write(framesOf(t, 0, frames, flows, 0)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	shutdownServer(t, s)
	st := s.Stats()
	assertConservation(t, st)
	if st.Admitted != frames || st.Shed != 0 {
		t.Errorf("admitted %d shed %d, want %d/0", st.Admitted, st.Shed, frames)
	}
	if len(last) != flows {
		t.Errorf("saw %d flows, want %d", len(last), flows)
	}
}

// TestForcedDrainShedsTheRestOfTheRead: a reader blocked mid-read on
// credits when the drain deadline fires sheds what it had not queued,
// exactly once, and what it had queued is still processed.
func TestForcedDrainShedsTheRestOfTheRead(t *testing.T) {
	const frames, credit = 300, 8
	s, l, gate := stalledPipeServer(t, OverflowBlock, credit)
	conn := l.dial(t)
	defer conn.Close()
	go conn.Write(framesOf(t, 0, frames, 16, 0)) //nolint:errcheck // returns when the server reads or closes
	// Admitted is posted before the reader blocks, so this is reachable.
	waitFor(t, 5*time.Second, "reader blocked on credits", func() bool { return s.Stats().Admitted == credit })
	go func() {
		time.Sleep(300 * time.Millisecond)
		close(gate)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil || !strings.Contains(err.Error(), "drain deadline") {
		t.Fatalf("Shutdown error = %v, want drain deadline", err)
	}
	st := s.Stats()
	assertConservation(t, st)
	if st.Received != frames || st.Admitted != credit || st.Shed != frames-credit {
		t.Errorf("received %d admitted %d shed %d, want %d/%d/%d", st.Received, st.Admitted, st.Shed, frames, credit, frames-credit)
	}
	if got := s.processed.Load(); got != credit {
		t.Errorf("processed %d of %d admitted", got, credit)
	}
}

// TestGateSeesWholeReads hammers Reconfigure while multi-frame reads with
// replayed sequences stream in. Under the gate no read is mid-window, so
// the conservation law is exact at every observation.
func TestGateSeesWholeReads(t *testing.T) {
	l := newPipeListener()
	s := startServer(t, Config{
		Engine:       newTestEngine(t, 2),
		Listeners:    []net.Listener{l},
		Workers:      2,
		PerConnQueue: 16,
	})
	stop := make(chan struct{})
	var observed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Reconfigure(func() {
				st := s.Stats()
				if accounted(st) != st.Received {
					t.Errorf("under the gate: received %d, accounted %d: %+v", st.Received, accounted(st), st)
				}
				observed.Add(1)
			})
		}
	}()
	conn := l.dial(t)
	const rounds, perWrite = 60, 50
	for r := 0; r < rounds; r++ {
		// Every second write replays the one before it.
		first := uint64(r/2*perWrite) + 1
		if _, err := conn.Write(framesOf(t, 0, perWrite, 8, first)); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	waitFor(t, 5*time.Second, "all reads accounted", func() bool { return accounted(s.Stats()) == rounds*perWrite })
	close(stop)
	wg.Wait()
	shutdownServer(t, s)
	st := s.Stats()
	assertConservation(t, st)
	if st.Admitted != rounds*perWrite/2 || st.Deduped != rounds*perWrite/2 {
		t.Errorf("admitted %d deduped %d, want %d each", st.Admitted, st.Deduped, rounds*perWrite/2)
	}
	if observed.Load() == 0 {
		t.Error("Reconfigure never ran")
	}
}

// TestPanicMidMessageReleasesEverything: a PreProcess panic inside a
// multi-packet message loses that packet only; the restarted slot finishes
// the message and gives back its credits and its read buffer. The server
// runs on two-frame chunks with a credit of one message, so a leaked credit
// or chunk reference would wedge the reader within a few rounds.
func TestPanicMidMessageReleasesEverything(t *testing.T) {
	const perWrite, rounds = 6, 4 * maxConnChunks
	var seen, survived atomic.Int64
	clf := flow.ClassifierFunc(func([]byte) (corpus.Class, error) { survived.Add(1); return 0, nil })
	engine, err := flow.NewParallelEngine(flow.EngineConfig{BufferSize: 1, Classifier: clf}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := newPipeListener()
	s, err := NewServer(Config{
		Engine:       engine,
		Listeners:    []net.Listener{l},
		Workers:      1,
		PerConnQueue: perWrite,
		MaxFrame:     64,
		Supervision:  SupervisorConfig{BackoffBase: time.Millisecond, BackoffMax: time.Millisecond, TripAfter: -1},
		PreProcess: func(p *packet.Packet) {
			if seen.Add(1)%perWrite == 3 {
				panic("ingest test: poison packet")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.onRecycle = poison
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	conn := l.dial(t)
	for r := 0; r < rounds; r++ {
		// Fresh flows every round, so each surviving packet classifies.
		var buf []byte
		for i := 0; i < perWrite; i++ {
			p := testPacket(r*perWrite + i)
			p.Payload = []byte{byte(i), 1, 2, 3}
			if buf, err = AppendFrame(buf, &p); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		waitFor(t, 5*time.Second, "round processed", func() bool {
			return s.processed.Load() == int64((r+1)*perWrite)
		})
	}
	conn.Close()
	shutdownServer(t, s)
	st := s.Stats()
	assertConservation(t, st)
	if st.Admitted != rounds*perWrite || st.Shed != 0 {
		t.Errorf("admitted %d shed %d, want %d/0", st.Admitted, st.Shed, rounds*perWrite)
	}
	if st.Supervisor.Panics != rounds {
		t.Errorf("%d panics, want one per round (%d)", st.Supervisor.Panics, rounds)
	}
	if got := survived.Load(); got != rounds*(perWrite-1) {
		t.Errorf("engine classified %d packets, want every one but the %d that panicked (%d)", got, rounds, rounds*(perWrite-1))
	}
}

// TestDeadlineFollowsBufferedBytes pins which deadline a read gets: the
// idle deadline only while nothing is buffered, the read deadline while
// part of a frame is.
func TestDeadlineFollowsBufferedBytes(t *testing.T) {
	frame := framesOf(t, 0, 1, 1, 0)
	half := frame[:len(frame)/2]
	for name, tc := range map[string]struct {
		idle, read time.Duration
		reaped     bool
	}{
		"partial frame waits on the read deadline":  {idle: 5 * time.Second, read: 30 * time.Millisecond, reaped: true},
		"partial frame ignores the idle deadline":   {idle: 30 * time.Millisecond, read: 5 * time.Second, reaped: false},
		"empty buffer ignores the read deadline...": {idle: 5 * time.Second, read: 30 * time.Millisecond, reaped: false},
	} {
		t.Run(name, func(t *testing.T) {
			l := listenLocal(t)
			s := startServer(t, Config{
				Engine:      newTestEngine(t, 1),
				Listeners:   []net.Listener{l},
				Workers:     1,
				IdleTimeout: tc.idle,
				ReadTimeout: tc.read,
			})
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			msg := append(append([]byte(nil), frame...), half...)
			if strings.HasPrefix(name, "empty") {
				msg = frame
			}
			if _, err := conn.Write(msg); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 5*time.Second, "the whole frame", func() bool { return s.Stats().Admitted == 1 })
			if tc.reaped {
				waitFor(t, 2*time.Second, "mid-frame reap", func() bool { return s.Stats().TimedOut == 1 })
			} else {
				time.Sleep(200 * time.Millisecond)
				if st := s.Stats(); st.TimedOut != 0 {
					t.Errorf("connection reaped after 200ms: %+v", st)
				}
			}
			conn.Close()
			shutdownServer(t, s)
			assertConservation(t, s.Stats())
		})
	}
}

// hashClassifier labels from every byte of the buffer, so a single
// corrupted payload byte moves the verdict with probability 3/4.
func hashClassifier() flow.Classifier {
	return flow.ClassifierFunc(func(payload []byte) (corpus.Class, error) {
		h := fnv.New32a()
		h.Write(payload)
		return corpus.Class(h.Sum32() % uint32(corpus.NumClasses)), nil
	})
}

// smallReadListener caps every Read on accepted connections at a size drawn
// from a seeded schedule, so frames arrive alone, in groups, and in pieces.
type smallReadListener struct {
	net.Listener
	seed int64
}

func (l *smallReadListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.seed++
	return &smallReadConn{Conn: c, rng: rand.New(rand.NewSource(l.seed))}, nil
}

type smallReadConn struct {
	net.Conn
	rng *rand.Rand
}

func (c *smallReadConn) Read(p []byte) (int, error) {
	// Mostly a few frames' worth, sometimes a sliver, sometimes everything.
	limit := 1 + c.rng.Intn(3000)
	switch c.rng.Intn(8) {
	case 0:
		limit = 1 + c.rng.Intn(24)
	case 1:
		limit = len(p)
	}
	return c.Conn.Read(p[:min(limit, len(p))])
}

// TestPoisonedChunksKeepVerdicts is the alias-lifetime test: every stretch
// of read buffer is overwritten the moment it is recycled, ~50k mixed
// packets (HTTP headers, FIN/RST, UDP) arrive over a tearing, chunking
// transport in reads of every size, and the verdicts must equal the
// in-process replay. Anything downstream that kept a Payload alias past
// ProcessBatch would classify poison.
func TestPoisonedChunksKeepVerdicts(t *testing.T) {
	cfg := packet.DefaultTraceConfig()
	cfg.Flows = 2600
	cfg.Duration = 20 * time.Second
	cfg.MaxFlowBytes = 24 << 10
	cfg.Seed = 77
	if testing.Short() {
		cfg.Flows = 300
	}
	trace := testTraceFrom(t, cfg)
	if !testing.Short() && len(trace.Packets) < 50_000 {
		t.Fatalf("trace has %d packets, want at least 50k", len(trace.Packets))
	}
	newEngine := func() *flow.ParallelEngine {
		pe, err := flow.NewParallelEngine(flow.EngineConfig{
			BufferSize:        512,
			Classifier:        hashClassifier(),
			StripKnownHeaders: true,
			HeaderThreshold:   8,
			CDB:               flow.CDBConfig{PurgeOnClose: true},
		}, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pe
	}
	ref := newEngine()
	var maxSeen time.Duration
	for i := range trace.Packets {
		maxSeen = max(maxSeen, trace.Packets[i].Time)
		if _, err := ref.Process(&trace.Packets[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.FlushAll(maxSeen + time.Minute); err != nil {
		t.Fatal(err)
	}

	engine := newEngine()
	inner := listenLocal(t)
	s, err := NewServer(Config{
		Engine:    engine,
		Listeners: []net.Listener{&smallReadListener{Listener: inner, seed: 5}},
		Workers:   2,
		Batch:     16,
	})
	if err != nil {
		t.Fatal(err)
	}
	var recycled atomic.Int64
	s.onRecycle = func(stale []byte) { recycled.Add(1); poison(stale) }
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	chaos := NewConnChaos(ConnChaosConfig{Seed: 7, ChunkRate: 0.5, ResetEvery: 4 << 20, MaxResets: 3})
	client, err := NewClient(ClientConfig{
		Dial: func() (net.Conn, error) {
			c, err := net.Dial("tcp", inner.Addr().String())
			if err != nil {
				return nil, err
			}
			return chaos.Wrap(c), nil
		},
		// BackoffMax also bounds the reconnect fence: long enough that the
		// old connection's slow reader always finishes before the redial, so
		// a tear never reorders a flow.
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Second,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range trace.Packets {
		if err := client.Send(&trace.Packets[i]); err != nil {
			t.Fatalf("Send(%d): %v", i, err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	waitFor(t, 60*time.Second, "every packet admitted", func() bool { return s.Stats().Admitted == len(trace.Packets) })
	shutdownServer(t, s)

	st := s.Stats()
	assertConservation(t, st)
	if st.Shed != 0 || st.Quarantined != chaos.Stats().Resets {
		t.Errorf("shed %d, quarantined %d for %d tears", st.Shed, st.Quarantined, chaos.Stats().Resets)
	}
	if recycled.Load() < 100 {
		t.Errorf("only %d recycles: the schedule never exercised buffer reuse", recycled.Load())
	}
	assertEnginesMatch(t, trace, engine, ref)
}

// TestIngestAllocRegression is the alloc gate of the whole ingest path, from
// a write on the connection to the engine's return: once the flows are in
// the CDB, a packet costs no allocation — no payload copy, no per-packet
// message, no per-read slice.
func TestIngestAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	const flows, perWrite = 32, 64
	l := newPipeListener()
	s := startServer(t, Config{
		Engine:    newTestEngine(t, 4),
		Listeners: []net.Listener{l},
		Workers:   2,
	})
	conn := l.dial(t)
	// 256-byte payloads fill the test engine's buffer, so the first packet
	// of each flow classifies it and every later one is a CDB hit.
	var buf []byte
	seqAt := make([]int, 0, perWrite) // offset of each frame's sequence field
	for i := 0; i < perWrite; i++ {
		p := sizedPacket(i, flows, 256)
		seqAt = append(seqAt, len(buf)+frameHeaderSize)
		var err error
		if buf, err = AppendFrameSeq(buf, &p, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	sent := 0
	write := func() {
		// Sequences must keep rising or the frames are deduplicated.
		for _, off := range seqAt {
			sent++
			putSeq(buf[off:], uint64(sent))
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
		for s.processed.Load() != int64(sent) {
			time.Sleep(20 * time.Microsecond)
		}
	}
	for i := 0; i < 4; i++ {
		write()
	}
	perRun := testing.AllocsPerRun(50, write)
	if perPacket := perRun / perWrite; perPacket > 0.05 {
		t.Errorf("%.3f allocs per CDB-hit packet (%.1f per %d-packet write), want <= 0.05", perPacket, perRun, perWrite)
	}
	conn.Close()
	shutdownServer(t, s)
	st := s.Stats()
	assertConservation(t, st)
	if st.Admitted != sent || st.Shed != 0 {
		t.Errorf("admitted %d shed %d, want %d/0", st.Admitted, st.Shed, sent)
	}
}

// putSeq overwrites a version-2 frame's sequence field in place. The CRC
// covers the payload only, so the frame stays valid.
func putSeq(b []byte, seq uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(seq)
		seq >>= 8
	}
}

// schedReader serves data in reads capped by a repeating size schedule.
type schedReader struct {
	data  []byte
	sched []byte
	i     int
}

func (r *schedReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(r.sched) > 0 {
		n = min(n, int(r.sched[r.i%len(r.sched)])+1)
		r.i++
	}
	n = copy(p[:n], r.data)
	r.data = r.data[n:]
	return n, nil
}

// nopListener satisfies NewServer for a server that is never started.
type nopListener struct{}

func (nopListener) Accept() (net.Conn, error) { return nil, errors.New("nopListener") }
func (nopListener) Close() error              { return nil }
func (nopListener) Addr() net.Addr            { return &net.UnixAddr{Name: "nop", Net: "nop"} }

// FuzzFrameAliasVsCopy feeds arbitrary bytes, cut into reads by an
// arbitrary schedule, to the server's aliasing decode and to the copying
// FrameReader: both must yield the same packets, sequences and quarantine
// count. The aliasing side runs on 147-byte chunks with the poison hook
// on, and "workers" hold messages across later reads, so a payload the
// reader overwrote or recycled while it was still referenced shows up as a
// mismatch when the message is finally compared.
func FuzzFrameAliasVsCopy(f *testing.F) {
	const maxFrame = 128
	three := framesOf(f, 0, 3, 2, 0)
	seqd := framesOf(f, 0, 4, 3, 7)
	f.Add(three, []byte{})
	f.Add(three, []byte{0})
	f.Add(append(append([]byte("junk"), seqd...), three[:9]...), []byte{4, 40, 2})
	f.Add(append(append([]byte(nil), seqd...), seqd...), []byte{255, 1, 17})
	f.Add([]byte{'I', 'G', frameVersion, 0, 0, 0, 100, 0, 0, 0, 0}, []byte{3})

	engine, err := flow.NewParallelEngine(flow.EngineConfig{BufferSize: 8, Classifier: pureClassifier()}, 1, nil)
	if err != nil {
		f.Fatal(err)
	}
	s, err := NewServer(Config{Engine: engine, Listeners: []net.Listener{nopListener{}}, MaxFrame: maxFrame})
	if err != nil {
		f.Fatal(err)
	}
	s.onRecycle = poison

	f.Fuzz(func(t *testing.T, data, sched []byte) {
		type decoded struct {
			pkt packet.Packet
			seq uint64
		}
		var want []decoded
		fr := NewFrameReader(&schedReader{data: data, sched: sched}, maxFrame, nil)
		for {
			p, err := fr.Next()
			if err != nil {
				break
			}
			want = append(want, decoded{p, fr.LastSeq()})
		}

		// held is a message a worker has not finished: aliased packets, the
		// index of the first in want, and a reference on their chunk.
		type held struct {
			c     *chunk
			first int
			pkts  []flow.Routed
			seqs  []uint64
		}
		var inFlight []held
		got := 0
		finish := func(h held) {
			for i, r := range h.pkts {
				if h.first+i >= len(want) {
					t.Fatalf("aliasing decode yielded more than the %d packets Next did", len(want))
				}
				w := want[h.first+i]
				if !packetsEqual(&r.Pkt, &w.pkt) || h.seqs[i] != w.seq {
					t.Fatalf("packet %d: aliasing decode %+v seq %d, Next %+v seq %d", h.first+i, r.Pkt, h.seqs[i], w.pkt, w.seq)
				}
				if r.ID != flow.IDOf(w.pkt.Tuple) {
					t.Fatalf("packet %d: flow ID is not the tuple's hash", h.first+i)
				}
			}
		}
		cr := s.newConnReader()
		src := &schedReader{data: data, sched: sched}
		for round := 0; ; round++ {
			// Finish the oldest messages before the reader can need their
			// chunks: never more than two in flight.
			for len(inFlight) > 0 && (len(inFlight) >= 2 || len(sched) > 0 && sched[round%len(sched)]&1 == 1) {
				finish(inFlight[0])
				cr.release(inFlight[0].c)
				inFlight = inFlight[1:]
			}
			if !cr.makeRoom() {
				t.Fatal("makeRoom gave up without a forced drain")
			}
			n, err := src.Read(cr.cur.buf[cr.cur.w:])
			cr.cur.w += n
			if n > 0 {
				cr.scan()
				if len(cr.frames) > 0 {
					cr.cur.refs.Add(1)
					inFlight = append(inFlight, held{
						c: cr.cur, first: got,
						pkts: append([]flow.Routed(nil), cr.frames...),
						seqs: append([]uint64(nil), cr.seqs...),
					})
					got += len(cr.frames)
				}
			}
			if err != nil {
				cr.finish(err)
				break
			}
		}
		for _, h := range inFlight {
			finish(h)
			cr.release(h.c)
		}
		if got != len(want) {
			t.Fatalf("aliasing decode yielded %d packets, Next %d", got, len(want))
		}
		if cr.sc.quarantined != fr.Quarantined() {
			t.Fatalf("aliasing decode quarantined %d events, Next %d", cr.sc.quarantined, fr.Quarantined())
		}
	})
}
