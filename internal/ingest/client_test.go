package ingest

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"iustitia/internal/packet"
)

// frameSink is a bare peer for client tests: it decodes every frame that
// arrives on any connection and closes each connection at its EOF, as the
// server's reader does.
type frameSink struct {
	l net.Listener

	mu          sync.Mutex
	times       []time.Duration // Packet.Time of every decoded frame, in arrival order
	quarantined int
	conns       int
}

func newFrameSink(t *testing.T) *frameSink {
	t.Helper()
	fs := &frameSink{l: listenLocal(t)}
	t.Cleanup(func() { fs.l.Close() })
	go func() {
		for {
			c, err := fs.l.Accept()
			if err != nil {
				return
			}
			fs.mu.Lock()
			fs.conns++
			fs.mu.Unlock()
			go fs.serve(c)
		}
	}()
	return fs
}

func (fs *frameSink) serve(c net.Conn) {
	defer c.Close()
	fr := NewFrameReader(c, 0, func() {
		fs.mu.Lock()
		fs.quarantined++
		fs.mu.Unlock()
	})
	for {
		p, err := fr.Next()
		if err != nil {
			return
		}
		fs.mu.Lock()
		fs.times = append(fs.times, p.Time)
		fs.mu.Unlock()
	}
}

func (fs *frameSink) dial() (net.Conn, error) { return net.Dial("tcp", fs.l.Addr().String()) }

func (fs *frameSink) snapshot() (times []time.Duration, quarantined, conns int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]time.Duration(nil), fs.times...), fs.quarantined, fs.conns
}

// sizedPacket is testPacket(i) of flow i%flows with a payload of n bytes.
func sizedPacket(i, flows, n int) packet.Packet {
	p := testPacket(i % flows)
	p.Time = time.Duration(i+1) * time.Millisecond
	p.Payload = bytes.Repeat([]byte{byte(i)}, n)
	return p
}

// TestClientLoneFrameIsWrittenAtOnce: group commit must not hold a frame
// back waiting for company. One Send on an idle client reaches the peer
// with no second frame, Flush or Close to push it.
func TestClientLoneFrameIsWrittenAtOnce(t *testing.T) {
	fs := newFrameSink(t)
	c, err := NewClient(ClientConfig{Dial: fs.dial})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := testPacket(1)
	if err := c.Send(&p); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the lone frame to arrive", func() bool {
		times, _, _ := fs.snapshot()
		return len(times) == 1
	})
}

// TestClientFlushAndCloseDeliverEverything: Send only queues, so Flush is
// what makes Stats().Sent true, and Close is a Flush that also ends the
// connection — the peer sees every frame, in order, then EOF.
func TestClientFlushAndCloseDeliverEverything(t *testing.T) {
	fs := newFrameSink(t)
	c, err := NewClient(ClientConfig{Dial: fs.dial})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500 // ~550 KB: several batches
	for i := 0; i < n; i++ {
		p := sizedPacket(i, 4, 1024)
		if err := c.SendSeq(&p, uint64(i+1)); err != nil {
			t.Fatalf("SendSeq(%d): %v", i, err)
		}
		if i == n/2 {
			if err := c.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if sent := c.Stats().Sent; sent != i+1 {
				t.Fatalf("after Flush, Sent = %d, want %d", sent, i+1)
			}
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if sent := c.Stats().Sent; sent != n {
		t.Fatalf("after Close, Sent = %d, want %d", sent, n)
	}
	waitFor(t, 5*time.Second, "the peer to drain the connection", func() bool {
		times, _, _ := fs.snapshot()
		return len(times) == n
	})
	times, quarantined, conns := fs.snapshot()
	for i, at := range times {
		if at != time.Duration(i+1)*time.Millisecond {
			t.Fatalf("frame %d arrived out of order (time %v)", i, at)
		}
	}
	if quarantined != 0 || conns != 1 {
		t.Errorf("quarantined %d on %d connections, want 0 on 1", quarantined, conns)
	}
}

// TestClientBackpressure: a peer that stops reading must stop the
// producer — at the pending bound, not after unbounded queuing — and let
// it go again when it resumes. net.Pipe has no buffer, so the first Write
// blocks until the test reads.
func TestClientBackpressure(t *testing.T) {
	near, far := net.Pipe()
	c, err := NewClient(ClientConfig{Dial: func() (net.Conn, error) { return near, nil }})
	if err != nil {
		t.Fatal(err)
	}
	const n = 400 // ~430 KB, several times the bound
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			p := sizedPacket(i, 4, 1024)
			if err := c.Send(&p); err != nil {
				done <- err
				return
			}
		}
		done <- c.Flush()
	}()

	blockedAt := func() (queued uint64, pending int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.queued, len(c.pend.buf)
	}
	waitFor(t, 5*time.Second, "the producer to fill the pending bound", func() bool {
		_, pending := blockedAt()
		return pending >= maxPendingBytes
	})
	queued, pending := blockedAt()
	select {
	case err := <-done:
		t.Fatalf("producer finished against a stalled peer (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if q, p := blockedAt(); q != queued || p != pending {
		t.Fatalf("producer advanced while the peer was stalled: queued %d -> %d, pending %d -> %d", queued, q, pending, p)
	}
	if queued >= n {
		t.Fatalf("all %d frames queued against a stalled peer", n)
	}
	const frame = 1024 + 64 // payload + generous header allowance
	if pending >= maxPendingBytes+frame {
		t.Errorf("pending %d bytes, want under the bound %d plus one frame", pending, maxPendingBytes)
	}

	received := make(chan int, 1)
	go func() {
		fr := NewFrameReader(far, 0, nil)
		count := 0
		for {
			if _, err := fr.Next(); err != nil {
				received <- count
				return
			}
			count++
		}
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("producer: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("producer still blocked after the peer resumed")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := <-received; got != n {
		t.Errorf("peer decoded %d frames, want %d", got, n)
	}
}

// TestClientStickyError: a delivery failure is reported once, by whichever
// of Send, Flush and Close is called next; the frames it cost are gone,
// and the client then works again.
func TestClientStickyError(t *testing.T) {
	fs := newFrameSink(t)
	down := errors.New("peer down")
	var mu sync.Mutex
	up := false
	c, err := NewClient(ClientConfig{
		Dial: func() (net.Conn, error) {
			mu.Lock()
			defer mu.Unlock()
			if !up {
				return nil, down
			}
			return fs.dial()
		},
		MaxRetries:  2,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Through Flush.
	lost := testPacket(1)
	if err := c.Send(&lost); err != nil {
		t.Fatalf("Send queues, it must not fail: %v", err)
	}
	if err := c.Flush(); !errors.Is(err, down) {
		t.Fatalf("Flush = %v, want the dial error", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("second Flush = %v, want nil: the error surfaces once", err)
	}
	if st := c.Stats(); st.DialFailures != 3 || st.Sent != 0 {
		t.Errorf("stats %+v, want 3 dial failures (MaxRetries 2) and nothing sent", st)
	}

	// Through Send: the failing frame is lost, the Send that learns of it
	// queues nothing.
	if err := c.Send(&lost); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the writer to give up", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.err != nil
	})
	refused := testPacket(2)
	if err := c.Send(&refused); !errors.Is(err, down) {
		t.Fatalf("Send after a failure = %v, want the dial error", err)
	}

	// Reusable.
	mu.Lock()
	up = true
	mu.Unlock()
	ok := testPacket(3)
	if err := c.Send(&ok); err != nil {
		t.Fatalf("Send after the error surfaced: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	waitFor(t, 5*time.Second, "the frame sent after recovery", func() bool {
		times, _, _ := fs.snapshot()
		return len(times) >= 1
	})
	times, _, _ := fs.snapshot()
	if len(times) != 1 || times[0] != ok.Time {
		t.Errorf("peer got frames %v, want only the one sent after recovery (%v)", times, ok.Time)
	}
}

// TestClientFrameBoundaryResume tears a version-1 stream — no sequence
// numbers, so the server cannot hide a duplicate — several times, each
// tear somewhere inside a multi-frame Write. Resume must restart at the
// first frame not fully written: every packet reaches a worker exactly
// once, and each tear costs exactly one quarantined prefix.
func TestClientFrameBoundaryResume(t *testing.T) {
	const n, flows = 600, 6
	var frame []byte
	total := 0
	for i := 0; i < n; i++ {
		p := sizedPacket(i, flows, 700)
		var err error
		if frame, err = AppendFrame(frame[:0], &p); err != nil {
			t.Fatal(err)
		}
		total += len(frame)
	}
	chaos := NewConnChaos(ConnChaosConfig{Seed: 3, ChunkRate: 0.5, ResetEvery: total / 6, MaxResets: 5})

	var mu sync.Mutex
	seen := make(map[time.Duration]int, n)
	l := listenLocal(t)
	s := startServer(t, Config{
		Engine:     newTestEngine(t, 2),
		Listeners:  []net.Listener{l},
		Workers:    2,
		PreProcess: func(p *packet.Packet) { mu.Lock(); seen[p.Time]++; mu.Unlock() },
	})
	addr := l.Addr().String()
	c, err := NewClient(ClientConfig{
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return chaos.Wrap(conn), nil
		},
		BackoffBase: time.Millisecond,
		BackoffMax:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := sizedPacket(i, flows, 700)
		if err := c.Send(&p); err != nil {
			t.Fatalf("Send(%d): %v", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Written is not yet accepted: a drain started now could close the
	// listener on the last connection still in its backlog.
	waitFor(t, 10*time.Second, "every frame to be accounted", func() bool {
		return s.Stats().Received >= n+5
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	st, ccs, cls := s.Stats(), chaos.Stats(), c.Stats()
	assertConservation(t, st)
	if ccs.Resets != 5 {
		t.Fatalf("chaos tore %d times, want 5", ccs.Resets)
	}
	if st.Admitted != n || st.Quarantined != ccs.Resets || st.Shed != 0 {
		t.Errorf("admitted %d quarantined %d shed %d, want %d, %d (one per tear), 0", st.Admitted, st.Quarantined, st.Shed, n, ccs.Resets)
	}
	if cls.Sent != n || cls.Resent != ccs.Resets || cls.Reconnects != ccs.Resets {
		t.Errorf("client %+v, want %d sent and one resend and reconnect per tear (%d)", cls, n, ccs.Resets)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if got := seen[time.Duration(i+1)*time.Millisecond]; got != 1 {
			t.Errorf("packet %d reached a worker %d times, want exactly once", i, got)
		}
	}
}

// slowFirstConn delays every read on the first connection its listener
// accepts, so frames the client wrote there are still buffered long after
// the client has moved on.
type slowFirstConn struct {
	net.Listener
	once sync.Once
}

func (l *slowFirstConn) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.once.Do(func() { c = &slowReads{Conn: c} })
	return c, nil
}

type slowReads struct{ net.Conn }

func (c *slowReads) Read(p []byte) (int, error) {
	time.Sleep(time.Millisecond)
	if len(p) > 4096 {
		p = p[:4096]
	}
	return c.Conn.Read(p)
}

// TestClientReconnectFence is the regression test for the reconnect
// ordering hole: the server is slow to read the first connection, the
// client's write on it is torn mid-stream, and the client reconnects. If
// it sends on the new connection while frames are still buffered on the
// old one, those frames are overtaken — later packets of a flow arrive
// first, and for sequenced frames the watermark then discards the
// overtaken ones as duplicates. The client must instead wait for the
// server to finish with the old connection.
func TestClientReconnectFence(t *testing.T) {
	const n, flows = 240, 4
	var frame []byte
	total := 0
	for i := 0; i < n; i++ {
		p := sizedPacket(i, flows, 1000)
		var err error
		if frame, err = AppendFrameSeq(frame[:0], &p, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
		total += len(frame)
	}
	chaos := NewConnChaos(ConnChaosConfig{Seed: 5, ResetEvery: total / 2, MaxResets: 1})

	var mu sync.Mutex
	lastTime := make(map[packet.FiveTuple]time.Duration)
	reordered := 0
	l := &slowFirstConn{Listener: listenLocal(t)}
	s := startServer(t, Config{
		Engine:    newTestEngine(t, 2),
		Listeners: []net.Listener{l},
		Workers:   2,
		PreProcess: func(p *packet.Packet) {
			mu.Lock()
			if p.Time <= lastTime[p.Tuple] {
				reordered++
			}
			lastTime[p.Tuple] = p.Time
			mu.Unlock()
		},
	})
	addr := l.Addr().String()
	c, err := NewClient(ClientConfig{
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return chaos.Wrap(conn), nil
		},
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Second, // also the fence's patience
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := sizedPacket(i, flows, 1000)
		if err := c.SendSeq(&p, uint64(i+1)); err != nil {
			t.Fatalf("SendSeq(%d): %v", i, err)
		}
	}
	// One event per frame — admitted, deduped or the torn prefix — so this
	// is reached with or without the fence.
	waitFor(t, 20*time.Second, "every frame to be accounted", func() bool {
		return s.Stats().Received >= n+1
	})
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	st := s.Stats()
	assertConservation(t, st)
	if got := chaos.Stats().Resets; got != 1 {
		t.Fatalf("chaos tore %d times, want 1", got)
	}
	if st.Deduped != 0 {
		t.Errorf("%d frames discarded as duplicates: frames on the new connection overtook the old one's", st.Deduped)
	}
	if st.Admitted != n || st.Quarantined != 1 {
		t.Errorf("admitted %d quarantined %d, want %d and 1", st.Admitted, st.Quarantined, n)
	}
	mu.Lock()
	defer mu.Unlock()
	if reordered != 0 {
		t.Errorf("%d packets reached a worker behind a later packet of their flow", reordered)
	}
}

// TestChaosConnCutsInsideAFrame: with several frames per Write, a cut
// that would fall exactly between two frames is moved one byte on, so the
// "one quarantine per tear" accounting the soaks assert stays exact.
func TestChaosConnCutsInsideAFrame(t *testing.T) {
	var buf []byte
	var ends []int
	for i := 0; i < 3; i++ {
		p := testPacket(i)
		var err error
		if buf, err = AppendFrame(buf, &p); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(buf))
	}
	for seed := int64(0); seed < 200; seed++ {
		near, far := net.Pipe()
		got := make(chan int, 1)
		go func() {
			n, _ := io.Copy(io.Discard, far)
			got <- int(n)
		}()
		cc := NewConnChaos(ConnChaosConfig{Seed: seed, ResetEvery: 1})
		_, err := cc.Wrap(near).Write(buf)
		if !errors.Is(err, ErrChaosReset) {
			t.Fatalf("seed %d: Write = %v, want a tear", seed, err)
		}
		near.Close()
		cut := <-got
		for _, e := range ends {
			if cut == e {
				t.Fatalf("seed %d: cut at %d is a frame boundary", seed, cut)
			}
		}
	}
}
