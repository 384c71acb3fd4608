package ingest

import (
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/flow"
	"iustitia/internal/packet"
)

// pureClassifier labels deterministically from the buffer's first byte —
// the property that makes networked and in-process replays comparable
// verdict by verdict.
func pureClassifier() flow.Classifier {
	return flow.ClassifierFunc(func(payload []byte) (corpus.Class, error) {
		return corpus.Class(int(payload[0]) % corpus.NumClasses), nil
	})
}

func newTestEngine(t *testing.T, shards int) *flow.ParallelEngine {
	t.Helper()
	pe, err := flow.NewParallelEngine(flow.EngineConfig{
		BufferSize: 256,
		Classifier: pureClassifier(),
	}, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pe
}

func listenLocal(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

func testTrace(t *testing.T, flows int, seed int64) *packet.Trace {
	t.Helper()
	cfg := packet.DefaultTraceConfig()
	cfg.Flows = flows
	cfg.Duration = 5 * time.Second
	cfg.MaxFlowBytes = 2 << 10
	cfg.Seed = seed
	trace, err := packet.Generate(cfg, corpus.NewGenerator(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// replayReference replays trace sequentially into a fresh engine — the
// ground truth a networked replay must match.
func replayReference(t *testing.T, trace *packet.Trace, shards int) *flow.ParallelEngine {
	t.Helper()
	ref := newTestEngine(t, shards)
	maxSeen := time.Duration(0)
	for i := range trace.Packets {
		if trace.Packets[i].Time > maxSeen {
			maxSeen = trace.Packets[i].Time
		}
		if _, err := ref.Process(&trace.Packets[i]); err != nil {
			t.Fatalf("reference Process: %v", err)
		}
	}
	if _, err := ref.FlushAll(maxSeen + time.Minute); err != nil {
		t.Fatalf("reference FlushAll: %v", err)
	}
	return ref
}

// accounted is the right-hand side of the transport conservation law: the
// frames whose fate is settled. A test that goes on to assert the law waits
// on this, not on Received, which the reader posts before it admits.
func accounted(st Stats) int { return st.Admitted + st.Quarantined + st.Shed }

// assertConservation checks the transport conservation law on a stats
// snapshot.
func assertConservation(t *testing.T, st Stats) {
	t.Helper()
	if got := accounted(st); got != st.Received {
		t.Errorf("conservation violated: Admitted(%d)+Quarantined(%d)+Shed(%d) = %d, want Received %d",
			st.Admitted, st.Quarantined, st.Shed, got, st.Received)
	}
}

// assertEnginesMatch compares classification outcomes of a networked
// replay against the in-process reference: identical aggregate stats and
// an identical label for every flow.
func assertEnginesMatch(t *testing.T, trace *packet.Trace, got, want *flow.ParallelEngine) {
	t.Helper()
	gs, ws := got.Stats(), want.Stats()
	if gs != ws {
		t.Errorf("engine stats diverge from in-process replay:\n  networked: %+v\n  reference: %+v", gs, ws)
	}
	for tuple := range trace.Flows {
		gl, gok := got.Label(tuple)
		wl, wok := want.Label(tuple)
		if gok != wok || gl != wl {
			t.Errorf("flow %v: label (%v,%v) diverges from reference (%v,%v)", tuple, gl, gok, wl, wok)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServerEndToEnd streams a full trace through TCP and checks the
// drained server's engine agrees with a sequential in-process replay,
// verdict for verdict.
func TestServerEndToEnd(t *testing.T) {
	trace := testTrace(t, 80, 5)
	engine := newTestEngine(t, 2)
	l := listenLocal(t)
	s := startServer(t, Config{
		Engine:    engine,
		Listeners: []net.Listener{l},
		Workers:   2,
	})
	if s.State() != StateHealthy {
		t.Fatalf("state after Start = %v, want healthy", s.State())
	}

	addr := l.Addr().String()
	client, err := NewClient(ClientConfig{Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }})
	if err != nil {
		t.Fatal(err)
	}
	for i := range trace.Packets {
		if err := client.Send(&trace.Packets[i]); err != nil {
			t.Fatalf("Send(%d): %v", i, err)
		}
	}
	client.Close()

	// Drain covers accepted connections; a connection still in the listen
	// backlog when Shutdown closes the listener is never served. Wait for
	// the frames to be accounted before draining.
	waitFor(t, 10*time.Second, "frames received", func() bool {
		return s.Stats().Received == len(trace.Packets)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if s.State() != StateStopped {
		t.Fatalf("state after Shutdown = %v, want stopped", s.State())
	}

	st := s.Stats()
	assertConservation(t, st)
	if st.Quarantined != 0 || st.Shed != 0 {
		t.Errorf("clean replay quarantined %d, shed %d", st.Quarantined, st.Shed)
	}
	if st.Admitted != len(trace.Packets) {
		t.Errorf("admitted %d packets, sent %d", st.Admitted, len(trace.Packets))
	}
	assertEnginesMatch(t, trace, engine, replayReference(t, trace, 2))
}

// replayThrough replays a trace through a server built from cfg and
// returns the final stats after a clean drain.
func replayThrough(t *testing.T, trace *packet.Trace, cfg Config, addr string, s *Server) Stats {
	t.Helper()
	client, err := NewClient(ClientConfig{Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }})
	if err != nil {
		t.Fatal(err)
	}
	for i := range trace.Packets {
		if err := client.Send(&trace.Packets[i]); err != nil {
			t.Fatalf("Send(%d): %v", i, err)
		}
	}
	client.Close()
	waitFor(t, 10*time.Second, "frames received", func() bool {
		return s.Stats().Received == len(trace.Packets)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	return s.Stats()
}

// TestServerPerPacketMode pins Batch as a size, not a mode: a batch of one
// and an odd small bound go through the same gather/run path as the
// default and reach the same verdicts.
func TestServerPerPacketMode(t *testing.T) {
	trace := testTrace(t, 60, 21)
	for _, batch := range []int{1, 7} {
		engine := newTestEngine(t, 2)
		l := listenLocal(t)
		cfg := Config{Engine: engine, Listeners: []net.Listener{l}, Workers: 2, Batch: batch}
		s := startServer(t, cfg)
		st := replayThrough(t, trace, cfg, l.Addr().String(), s)
		assertConservation(t, st)
		if st.Admitted != len(trace.Packets) {
			t.Errorf("batch %d: admitted %d packets, sent %d", batch, st.Admitted, len(trace.Packets))
		}
		assertEnginesMatch(t, trace, engine, replayReference(t, trace, 2))
	}
}

// TestServerUnixSocket checks the same framing works over a unix socket
// listener.
func TestServerUnixSocket(t *testing.T) {
	trace := testTrace(t, 10, 7)
	engine := newTestEngine(t, 1)
	sock := t.TempDir() + "/ingest.sock"
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Engine: engine, Listeners: []net.Listener{l}, Workers: 1})
	client, err := NewClient(ClientConfig{Dial: func() (net.Conn, error) { return net.Dial("unix", sock) }})
	if err != nil {
		t.Fatal(err)
	}
	for i := range trace.Packets {
		if err := client.Send(&trace.Packets[i]); err != nil {
			t.Fatalf("Send(%d): %v", i, err)
		}
	}
	client.Close()
	waitFor(t, 5*time.Second, "frames received", func() bool {
		return s.Stats().Received == len(trace.Packets)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	st := s.Stats()
	assertConservation(t, st)
	if st.Admitted != len(trace.Packets) {
		t.Errorf("admitted %d, want %d", st.Admitted, len(trace.Packets))
	}
}

// blockedEngineConfig builds a server whose workers are stalled by a
// PreProcess gate, so queue bounds are reached deterministically.
func stalledServer(t *testing.T, overflow OverflowPolicy, perConn int) (*Server, net.Listener, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	l := listenLocal(t)
	s := startServer(t, Config{
		Engine:       newTestEngine(t, 1),
		Listeners:    []net.Listener{l},
		Workers:      1,
		QueueDepth:   1, // per-worker queue of 1
		PerConnQueue: perConn,
		Overflow:     overflow,
		PreProcess:   func(*packet.Packet) { <-gate },
	})
	return s, l, gate
}

// TestServerShedPolicy fills the queues against stalled workers and
// checks overflow packets are shed with the connection kept alive, the
// conservation law exact, and delivery resuming once the stall clears.
func TestServerShedPolicy(t *testing.T) {
	s, l, gate := stalledServer(t, OverflowShed, 2)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const sent = 20
	var buf []byte
	for i := 0; i < sent; i++ {
		p := testPacket(i)
		buf, err = AppendFrame(buf[:0], &p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, "all frames accounted", func() bool {
		st := s.Stats()
		return st.Received == sent && st.Shed > 0
	})
	close(gate) // release the workers

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn.Close()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	st := s.Stats()
	assertConservation(t, st)
	if st.Shed == 0 || st.Admitted == 0 {
		t.Errorf("expected both shed and admitted packets, got %+v", st)
	}
	if st.Disconnected != 0 {
		t.Errorf("shed policy disconnected %d conns", st.Disconnected)
	}
}

// TestServerDisconnectPolicy checks overflow under the disconnect policy
// closes the offending connection.
func TestServerDisconnectPolicy(t *testing.T) {
	s, l, gate := stalledServer(t, OverflowDisconnect, 1)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var buf []byte
	for i := 0; i < 10; i++ {
		p := testPacket(i)
		buf, err = AppendFrame(buf[:0], &p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(buf); err != nil {
			break // server already cut us off
		}
	}
	waitFor(t, 5*time.Second, "disconnect", func() bool { return s.Stats().Disconnected >= 1 })
	// The server closed the connection: reads must see EOF/reset.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("connection still open after disconnect policy triggered")
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	assertConservation(t, s.Stats())
}

// TestServerIdleTimeout checks a silent connection is reaped by the idle
// deadline.
func TestServerIdleTimeout(t *testing.T) {
	l := listenLocal(t)
	s := startServer(t, Config{
		Engine:      newTestEngine(t, 1),
		Listeners:   []net.Listener{l},
		Workers:     1,
		IdleTimeout: 30 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	waitFor(t, 5*time.Second, "idle reap", func() bool { return s.Stats().TimedOut == 1 })
	waitFor(t, 5*time.Second, "conn closed", func() bool { return s.Stats().ActiveConns == 0 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestServerQuarantineKeepsConnection writes garbage between valid frames
// on a live connection: the garbage is quarantined, the valid frames all
// arrive, and the connection survives.
func TestServerQuarantineKeepsConnection(t *testing.T) {
	l := listenLocal(t)
	s := startServer(t, Config{Engine: newTestEngine(t, 1), Listeners: []net.Listener{l}, Workers: 1})
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var buf []byte
	for i := 0; i < 5; i++ {
		if _, err := conn.Write([]byte("!garbage between frames!")); err != nil {
			t.Fatal(err)
		}
		p := testPacket(i)
		buf, err = AppendFrame(buf[:0], &p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "frames and quarantines", func() bool {
		st := s.Stats()
		return st.Admitted == 5 && st.Quarantined == 5
	})
	st := s.Stats()
	assertConservation(t, st)
	if st.ActiveConns != 1 {
		t.Errorf("connection did not survive quarantine: %d active", st.ActiveConns)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn.Close()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestServerSupervision injects worker panics through PreProcess: each
// poison packet crashes the worker, the supervisor restarts it with
// backoff, a crash loop trips the breaker into degraded (visible in the
// status text), and a healthy packet recovers the server.
func TestServerSupervision(t *testing.T) {
	const tripAfter = 3
	poison := func(p *packet.Packet) {
		if len(p.Payload) > 0 && p.Payload[0] == 0xEE {
			panic("ingest test: poison packet")
		}
	}
	status := listenLocal(t)
	l := listenLocal(t)
	s := startServer(t, Config{
		Engine:         newTestEngine(t, 1),
		Listeners:      []net.Listener{l},
		StatusListener: status,
		Workers:        1,
		PreProcess:     poison,
		Supervision: SupervisorConfig{
			BackoffBase: time.Millisecond,
			BackoffMax:  5 * time.Millisecond,
			TripAfter:   tripAfter,
			Seed:        3,
		},
	})
	addr := l.Addr().String()
	client, err := NewClient(ClientConfig{Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	for i := 0; i < tripAfter; i++ {
		p := testPacket(i)
		p.Payload = []byte{0xEE, byte(i)}
		if err := client.Send(&p); err != nil {
			t.Fatalf("Send poison %d: %v", i, err)
		}
	}
	waitFor(t, 10*time.Second, "breaker trip", func() bool {
		st := s.Stats()
		return st.Supervisor.Panics >= tripAfter && st.Supervisor.BreakerOpen
	})
	if s.State() != StateDegraded {
		t.Fatalf("state = %v after crash loop, want degraded", s.State())
	}
	if got := statusDump(t, status.Addr().String()); !strings.Contains(got, "state: degraded") {
		t.Errorf("status text does not show degradation:\n%s", got)
	}

	good := testPacket(40)
	good.Payload = []byte{1, 2, 3}
	if err := client.Send(&good); err != nil {
		t.Fatalf("Send recovery packet: %v", err)
	}
	waitFor(t, 10*time.Second, "breaker recovery", func() bool { return s.State() == StateHealthy })
	if got := statusDump(t, status.Addr().String()); !strings.Contains(got, "state: healthy") {
		t.Errorf("status text does not show recovery:\n%s", got)
	}

	client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	st := s.Stats()
	assertConservation(t, st)
	if st.Supervisor.Restarts < tripAfter {
		t.Errorf("restarts = %d, want >= %d", st.Supervisor.Restarts, tripAfter)
	}
	// Panicked packets are admitted but never reach the engine; the good
	// packet must have.
	if st.Admitted != tripAfter+1 {
		t.Errorf("admitted = %d, want %d", st.Admitted, tripAfter+1)
	}
}

// statusDump reads one status document from the status listener.
func statusDump(t *testing.T, addr string) string {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial status: %v", err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	b, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("read status: %v", err)
	}
	return string(b)
}

// TestServerStatusText checks the status document carries the headline
// counters.
func TestServerStatusText(t *testing.T) {
	status := listenLocal(t)
	l := listenLocal(t)
	s := startServer(t, Config{
		Engine:         newTestEngine(t, 2),
		Listeners:      []net.Listener{l},
		StatusListener: status,
		Workers:        2,
	})
	got := statusDump(t, status.Addr().String())
	for _, want := range []string{
		"state: healthy", "received: 0", "admitted: 0", "quarantined: 0",
		"shed: 0", "workers: 2", "breaker closed", "fallback-class: text",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("status text missing %q:\n%s", want, got)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !strings.Contains(s.StatusText(), "state: stopped") {
		t.Error("status text after shutdown does not show stopped")
	}
}

// TestServerDrainDeadline checks an expired drain context force-closes a
// stuck connection, accounts its blocked packet as shed, and still
// reaches stopped with the conservation law intact.
func TestServerDrainDeadline(t *testing.T) {
	s, l, gate := stalledServer(t, OverflowBlock, 1)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Fill the pipeline so the reader is blocked in enqueue: the worker
	// holds one packet (credit held until processed), so the reader
	// stalls acquiring the per-connection credit for the next one.
	var buf []byte
	for i := 0; i < 4; i++ {
		p := testPacket(i)
		buf, err = AppendFrame(buf[:0], &p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "pipeline full", func() bool { return s.Stats().Received >= 2 })

	// Release the worker stall only after the drain deadline has expired,
	// so Shutdown must force the blocked reader out.
	go func() {
		time.Sleep(300 * time.Millisecond)
		close(gate)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err = s.Shutdown(ctx)
	if err == nil || !strings.Contains(err.Error(), "drain deadline") {
		t.Fatalf("Shutdown error = %v, want drain deadline", err)
	}
	if s.State() != StateStopped {
		t.Fatalf("state = %v after forced drain, want stopped", s.State())
	}
	assertConservation(t, s.Stats())
}

// TestParseOverflowPolicy round-trips the flag values.
func TestParseOverflowPolicy(t *testing.T) {
	for _, p := range []OverflowPolicy{OverflowBlock, OverflowShed, OverflowDisconnect} {
		got, err := ParseOverflowPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseOverflowPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseOverflowPolicy("nope"); err == nil {
		t.Error("ParseOverflowPolicy accepted garbage")
	}
}

// TestNewServerValidation checks config validation rejects broken setups.
func TestNewServerValidation(t *testing.T) {
	l := listenLocal(t)
	defer l.Close()
	engine := newTestEngine(t, 1)
	cases := map[string]Config{
		"no engine":      {Listeners: []net.Listener{l}},
		"no listeners":   {Engine: engine},
		"neg workers":    {Engine: engine, Listeners: []net.Listener{l}, Workers: -1},
		"neg queue":      {Engine: engine, Listeners: []net.Listener{l}, QueueDepth: -1},
		"neg conn queue": {Engine: engine, Listeners: []net.Listener{l}, PerConnQueue: -1},
		"bad overflow":   {Engine: engine, Listeners: []net.Listener{l}, Overflow: OverflowPolicy(9)},
		"bad fallback":   {Engine: engine, Listeners: []net.Listener{l}, FallbackClass: corpus.Class(99)},
		"neg batch":      {Engine: engine, Listeners: []net.Listener{l}, Batch: -1},
	}
	for name, cfg := range cases {
		if _, err := NewServer(cfg); err == nil {
			t.Errorf("%s: NewServer accepted invalid config", name)
		}
	}
}
