package ingest

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrChaosReset is returned by a chaos connection's Write after it
// deliberately tears a frame and half-closes the connection.
var ErrChaosReset = errors.New("ingest: chaos: connection reset mid-frame")

// ConnChaosConfig tunes deterministic transport-fault injection. The
// faults model what a flaky network does to a framed stream: writes
// split into arbitrary chunks (TCP segmentation), stalls (congestion,
// a GC'd peer), and connections dying mid-frame (resets, crashed
// middleboxes) leaving a torn frame on the server's side.
type ConnChaosConfig struct {
	// Seed makes the fault schedule reproducible.
	Seed int64
	// ChunkRate is the probability that a Write is delivered in several
	// small chunks instead of one call.
	ChunkRate float64
	// StallEvery injects a pause before every Nth write (0 disables).
	StallEvery int
	// Stall is the pause duration (default 5ms when StallEvery is set).
	Stall time.Duration
	// ResetEvery tears the connection after roughly this many bytes
	// written (0 disables): the current Write delivers only a prefix of
	// its buffer — a torn frame — and the connection's write side closes
	// gracefully, so the delivered prefix still reaches the peer before
	// EOF.
	ResetEvery int
	// MaxResets bounds the total resets injected (0 = unlimited).
	MaxResets int
}

// ConnChaosStats counts injected faults across all connections wrapped
// by one ConnChaos.
type ConnChaosStats struct {
	// Resets counts mid-frame connection tears.
	Resets int
	// Stalls counts injected write pauses.
	Stalls int
	// Chunked counts writes split into multiple chunks.
	Chunked int
	// BytesWritten counts payload bytes actually delivered.
	BytesWritten int
}

// ConnChaos is shared fault-injection state: wrap every connection a
// client dials with the same ConnChaos so the byte-count reset schedule
// spans reconnects, forcing multiple tears over a long replay.
type ConnChaos struct {
	cfg ConnChaosConfig

	mu         sync.Mutex
	rng        *rand.Rand
	sinceReset int
	writes     int
	stats      ConnChaosStats
}

// NewConnChaos builds shared chaos state from cfg.
func NewConnChaos(cfg ConnChaosConfig) *ConnChaos {
	if cfg.StallEvery > 0 && cfg.Stall <= 0 {
		cfg.Stall = 5 * time.Millisecond
	}
	return &ConnChaos{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats returns a snapshot of the injected-fault counters.
func (cc *ConnChaos) Stats() ConnChaosStats {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.stats
}

// Wrap returns conn with chaos injected into its Write path. Reads pass
// through untouched.
func (cc *ConnChaos) Wrap(conn net.Conn) net.Conn {
	return &chaosConn{Conn: conn, cc: cc}
}

type chaosConn struct {
	net.Conn
	cc *ConnChaos
}

// plan is one Write's fault decision, computed under the shared lock.
type plan struct {
	stall time.Duration
	chunk bool
	// cut, when in [1, len), tears the connection after delivering
	// exactly cut bytes.
	cut int
}

func (cc *ConnChaos) planWrite(n int) plan {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	var pl plan
	cc.writes++
	if cc.cfg.StallEvery > 0 && cc.writes%cc.cfg.StallEvery == 0 {
		pl.stall = cc.cfg.Stall
		cc.stats.Stalls++
	}
	if cc.cfg.ChunkRate > 0 && cc.rng.Float64() < cc.cfg.ChunkRate {
		pl.chunk = true
		cc.stats.Chunked++
	}
	if cc.cfg.ResetEvery > 0 && n > 1 &&
		(cc.cfg.MaxResets == 0 || cc.stats.Resets < cc.cfg.MaxResets) {
		cc.sinceReset += n
		if cc.sinceReset >= cc.cfg.ResetEvery {
			cc.sinceReset = 0
			cc.stats.Resets++
			// Tear strictly mid-buffer: at least 1 byte delivered, at
			// least 1 byte lost, so the peer always sees a torn frame.
			pl.cut = 1 + cc.rng.Intn(n-1)
		}
	}
	return pl
}

func (cc *ConnChaos) countBytes(n int) {
	cc.mu.Lock()
	cc.stats.BytesWritten += n
	cc.mu.Unlock()
}

// CloseWrite half-closes the wrapped connection when it can (TCP and unix
// sockets), and closes it outright otherwise.
func (c *chaosConn) CloseWrite() error {
	if hc, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return hc.CloseWrite()
	}
	return c.Conn.Close()
}

// Write delivers p subject to the fault plan: possibly after a stall,
// possibly in chunks, and possibly torn — a strict prefix is delivered,
// the write side is closed gracefully (so the prefix is not discarded in
// flight), and ErrChaosReset is returned with the short count.
func (c *chaosConn) Write(p []byte) (int, error) {
	pl := c.cc.planWrite(len(p))
	if pl.stall > 0 {
		time.Sleep(pl.stall)
	}
	deliver := p
	torn := false
	if pl.cut > 0 && pl.cut < len(p) {
		// A Write may carry several frames. Step off a cut that falls
		// exactly between two of them, so the peer still sees a torn frame.
		if pl.cut+1 < len(p) && p[pl.cut] == frameMagic0 && p[pl.cut+1] == frameMagic1 {
			pl.cut++
		}
		deliver = p[:pl.cut]
		torn = true
	}
	var written int
	var err error
	if pl.chunk && len(deliver) > 1 {
		// Split into a few uneven chunks to exercise the server's
		// incremental frame reads.
		for written < len(deliver) && err == nil {
			end := written + 1 + (len(deliver)-written)/3
			if end > len(deliver) {
				end = len(deliver)
			}
			var n int
			n, err = c.Conn.Write(deliver[written:end])
			written += n
		}
	} else {
		written, err = c.Conn.Write(deliver)
	}
	c.cc.countBytes(written)
	if err != nil {
		return written, err
	}
	if torn {
		// Half-close: FIN after the prefix is queued, so the peer reads
		// the torn frame and then EOF — a quarantine, not a loss — and the
		// writer can still wait for the peer to finish with the connection.
		_ = c.CloseWrite()
		return written, ErrChaosReset
	}
	return written, nil
}
