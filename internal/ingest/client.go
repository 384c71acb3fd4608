package ingest

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"iustitia/internal/packet"
)

// ClientConfig assembles a replay client.
type ClientConfig struct {
	// Dial opens a connection to the server. Required. It is re-invoked on
	// every reconnect, so chaos wrappers and address rotation both live
	// here. It runs on the client's writer goroutine, not the caller's.
	Dial func() (net.Conn, error)
	// MaxRetries bounds how many consecutive failed delivery attempts
	// (write error or failed redial) one frame survives before the client
	// gives up on everything queued. Zero defaults to 8; negative means a
	// single attempt.
	MaxRetries int
	// BackoffBase is the reconnect delay after the first failure; each
	// consecutive failure doubles it, capped at BackoffMax. Zero defaults
	// to 10ms / 1s.
	BackoffBase time.Duration
	// BackoffMax caps the reconnect delay, and bounds how long a broken
	// connection is read for the peer's EOF before the redial.
	BackoffMax time.Duration
	// Seed drives the reconnect jitter.
	Seed int64
}

// ClientStats summarizes a client's delivery activity.
type ClientStats struct {
	// Sent counts frames delivered exactly once (from the client's view:
	// the full frame was written without error).
	Sent int
	// Resent counts failed writes. Each one interrupts exactly one frame,
	// which is resent in full on a fresh connection; the server
	// quarantines the torn prefix, so the packet is still processed
	// exactly once.
	Resent int
	// Reconnects counts successful redials after a broken connection.
	Reconnects int
	// DialFailures counts failed dial attempts.
	DialFailures int
}

// maxPendingBytes bounds what Send may queue ahead of the writer: a
// producer that finds this much pending blocks until the writer takes the
// batch, so a server applying overflow=block still throttles the caller.
// At the smallest frame this is under half a default router journal.
const maxPendingBytes = 64 << 10

// batch is a run of encoded frames and where each one ends.
type batch struct {
	buf  []byte
	ends []int // ends[i] is the offset in buf just past frame i
}

// Client streams framed packets to an ingest server, transparently
// reconnecting and retransmitting across connection failures. It is safe
// for concurrent use, though frames interleave in call order.
//
// Delivery is group commit. Send and SendSeq encode the frame into the
// pending batch and return; a writer goroutine, started when the batch
// becomes non-empty and gone when it is empty again, issues one Write for
// whatever accumulated while the previous Write was in the kernel. An
// idle client therefore writes a lone frame at once, and a saturated one
// amortizes the syscall over up to maxPendingBytes of frames. What the
// client guarantees:
//
//   - Frames reach the connection in call order, each in one piece: a
//     Write carries whole frames only.
//   - A failed Write resumes, on a fresh connection, at the first frame it
//     did not fully write (Write's byte count is honoured). A tear costs
//     the server one quarantined prefix; no delivered frame is repeated.
//   - Before the redial the broken connection is half-closed and read to
//     the peer's EOF (at most BackoffMax). The server closes only after
//     enqueuing every frame it buffered, so nothing sent on the new
//     connection can overtake a frame still buffered on the old one.
//   - After MaxRetries consecutive failures without completing a frame
//     the client gives up on everything queued. The error is sticky: the
//     next Send, SendSeq, Flush or Close returns it once, and the client
//     is usable again afterwards.
//   - Flush and Close return only when every frame queued before the call
//     has been written or given up on.
type Client struct {
	cfg ClientConfig

	mu sync.Mutex
	// progress is broadcast whenever the writer takes a batch, settles
	// one, closes the connection on request, or exits.
	progress sync.Cond
	pend     batch
	// queued counts frames accepted, settled frames written or given up
	// on: Flush waits for settled to reach the queued it saw.
	queued, settled uint64
	writing         bool // a writer goroutine is running
	wantClose       bool // the writer closes conn at its next batch boundary
	err             error
	stats           ClientStats
	// loop is writeLoop bound once: `go c.loop()` allocates nothing, where
	// `go c.writeLoop()` would allocate its closure at every start.
	loop func()

	// Owned by the running writer, or by whoever holds mu while none runs.
	conn   net.Conn
	dialed bool
	rng    *rand.Rand
	spare  batch
}

// NewClient validates cfg and builds a client. The first connection is
// dialed lazily on the first Send.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("ingest: client needs a Dial function")
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 8
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 10 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	c := &Client{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	c.progress.L = &c.mu
	c.loop = c.writeLoop
	return c, nil
}

// Send queues one packet as a version-1 frame. It blocks only while
// maxPendingBytes are already pending, and returns the sticky error of an
// earlier delivery failure instead of queuing.
func (c *Client) Send(p *packet.Packet) error { return c.enqueue(p, 0, false) }

// SendSeq queues one packet as a version-2 frame carrying a delivery
// sequence number (see AppendFrameSeq). A resumed write resends the
// identical frame — same sequence — so the receiver's dedup watermark
// treats a torn-but-delivered attempt and its retransmission as one
// packet.
func (c *Client) SendSeq(p *packet.Packet, seq uint64) error { return c.enqueue(p, seq, true) }

func (c *Client) enqueue(p *packet.Packet, seq uint64, sequenced bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil && len(c.pend.buf) >= maxPendingBytes {
		c.progress.Wait()
	}
	if err := c.takeErr(); err != nil {
		return err
	}
	var err error
	if sequenced {
		c.pend.buf, err = AppendFrameSeq(c.pend.buf, p, seq)
	} else {
		c.pend.buf, err = AppendFrame(c.pend.buf, p)
	}
	if err != nil {
		return err
	}
	c.pend.ends = append(c.pend.ends, len(c.pend.buf))
	c.queued++
	if !c.writing {
		c.writing = true
		go c.loop()
	}
	return nil
}

// takeErr hands the sticky delivery failure to one caller. Called with
// c.mu held.
func (c *Client) takeErr() error {
	err := c.err
	c.err = nil
	return err
}

// writeLoop is the writer goroutine: it swaps the pending batch out,
// delivers it, and repeats until nothing is pending.
func (c *Client) writeLoop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.wantClose {
			c.dropConn()
			c.wantClose = false
		}
		if len(c.pend.ends) == 0 {
			c.writing = false
			c.progress.Broadcast()
			return
		}
		b := c.pend
		c.pend = batch{buf: c.spare.buf[:0], ends: c.spare.ends[:0]}
		c.progress.Broadcast() // producers blocked at the bound refill while this batch is written
		c.mu.Unlock()
		d, err := c.deliver(&b)
		c.mu.Lock()
		c.spare = b
		c.stats.Sent += d.Sent
		c.stats.Resent += d.Resent
		c.stats.Reconnects += d.Reconnects
		c.stats.DialFailures += d.DialFailures
		c.settled += uint64(len(b.ends))
		if err != nil {
			// What queued up behind the failed batch goes with it: writing
			// it would reorder the stream around the frames just lost.
			c.settled += uint64(len(c.pend.ends))
			c.pend.buf, c.pend.ends = c.pend.buf[:0], c.pend.ends[:0]
			c.err = err
		}
		c.progress.Broadcast()
	}
}

// deliver writes one batch with redial, backoff and frame-boundary
// resume, returning the counter increments it caused. Runs on the writer
// goroutine without c.mu.
func (c *Client) deliver(b *batch) (d ClientStats, err error) {
	// next is the first frame not fully written, off where it starts;
	// failures counts consecutive attempts that completed no frame.
	next, off, failures := 0, 0, 0
	for {
		if failures > c.cfg.MaxRetries {
			return d, fmt.Errorf("ingest: frame undeliverable after %d attempts: %w", failures, err)
		}
		if failures > 0 {
			time.Sleep(backoffFor(c.cfg.BackoffBase, c.cfg.BackoffMax, failures, c.rng))
		}
		if c.conn == nil {
			conn, derr := c.cfg.Dial()
			redial := c.dialed
			c.dialed = true
			if derr != nil {
				d.DialFailures++
				failures++
				err = derr
				continue
			}
			c.conn = conn
			if redial {
				d.Reconnects++
			}
		}
		n, werr := c.conn.Write(b.buf[off:])
		if werr == nil {
			d.Sent += len(b.ends) - next
			return d, nil
		}
		first := next
		for next < len(b.ends) && b.ends[next] <= off+n {
			next++
		}
		if next > first {
			d.Sent += next - first
			off = b.ends[next-1]
			failures = 0
		}
		failures++
		d.Resent++
		err = werr
		c.fence()
	}
}

// fence retires the connection after a failed write: half-close it, wait
// for the peer's EOF (the server closes once every frame it buffered is
// enqueued), then close. A dead connection fails the half-close and the
// read at once; a peer that never closes costs BackoffMax.
func (c *Client) fence() {
	if hc, ok := c.conn.(interface{ CloseWrite() error }); ok {
		_ = hc.CloseWrite()
		_ = c.conn.SetReadDeadline(time.Now().Add(c.cfg.BackoffMax))
		_, _ = io.Copy(io.Discard, c.conn)
	}
	c.dropConn()
}

// dropConn closes the current connection, if any.
func (c *Client) dropConn() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Stats returns a snapshot of the client's delivery counters. Counters of
// a batch still being written are added when it settles.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Flush blocks until every frame queued before the call has been written
// or given up on, and returns the sticky delivery error, if any.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flush()
}

// flush is Flush with c.mu held.
func (c *Client) flush() error {
	for target := c.queued; c.settled < target; {
		c.progress.Wait()
	}
	return c.takeErr()
}

// Close flushes, then closes the current connection, if any. The client
// can still be reused: the next Send redials.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.flush()
	if c.writing {
		// Frames queued by a concurrent Send are being written: the writer
		// closes at its next batch boundary, so no frame is torn.
		c.wantClose = true
		for c.wantClose {
			c.progress.Wait()
		}
		return err
	}
	if cerr := c.dropConn(); err == nil {
		err = cerr
	}
	return err
}
