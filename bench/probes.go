package main

import (
	"encoding/binary"
	"math"
	"net"
	"sync/atomic"
	"time"
)

// The benchmark observes the system only through seams it already has: a
// flow.Classifier wrapped around the trained model (tap), the
// ingest.Config.PreProcess hook (probe), and wrapped listeners (wire).
// All clocks are nanoseconds since epoch, from the monotonic clock.

var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// sampleBuf is a fixed-capacity sample store many goroutines append to
// without locking; samples past the capacity are counted, not kept.
type sampleBuf struct {
	buf     []int64
	n       atomic.Int64
	dropped atomic.Int64
}

func newSampleBuf(capacity int) *sampleBuf { return &sampleBuf{buf: make([]int64, capacity)} }

func (s *sampleBuf) add(v int64) {
	i := s.n.Add(1) - 1
	if int(i) >= len(s.buf) {
		s.dropped.Add(1)
		return
	}
	s.buf[i] = v
}

// sorted returns the kept samples in ascending order. Call it only once
// the writers are quiet.
func (s *sampleBuf) sorted() []int64 {
	n := int(s.n.Load())
	if n > len(s.buf) {
		n = len(s.buf)
	}
	return sortedCopy(s.buf[:n])
}

// armSlot is the latency mailbox of one descriptor: the generator stores
// the due time (and packet number) of the flow's trigger packet just
// before sending it, the tap collects it when the classifier is handed
// that flow's bytes. Padded so neighbouring descriptors do not share a
// cache line between the generator and the workers.
type armSlot struct {
	due atomic.Int64
	pkt atomic.Int64
	_   [48]byte
}

// tap wraps the trained model as the engine's classifier. It recognises
// which flow a classification belongs to by a 64-bit hash of the bytes
// (or, in stream mode, the vector) the engine hands it, which the
// reference replay computed for every descriptor beforehand.
type tap struct {
	inner VectorClassifier
	descs []flowDesc
	// byHash maps a classifier input to the first descriptor carrying it.
	// Built by the reference replay, read-only afterwards.
	byHash map[uint64]int32
	armed  []armSlot

	verdicts   atomic.Int64
	busyNs     atomic.Int64
	mismatched atomic.Int64 // verdict differs from the reference for that input
	unknown    atomic.Int64 // input no descriptor predicts

	// latFrom opens the latency window: flows due at or after it yield a
	// verdict-latency sample. unmatched counts classifications inside the
	// window that could not be timed (ambiguous hash, or no due stamp).
	latFrom   atomic.Int64
	lat       *sampleBuf
	unmatched atomic.Int64

	trace atomic.Pointer[traceLog]

	// Reference replay only (single goroutine): the last call's input
	// hash and verdict, picked up by the replay loop.
	recording bool
	lastHash  uint64
}

const noWindow = math.MaxInt64

func newTap(inner VectorClassifier, descs []flowDesc) *tap {
	t := &tap{inner: inner, descs: descs,
		byHash: make(map[uint64]int32, len(descs)), armed: make([]armSlot, len(descs))}
	t.latFrom.Store(noWindow)
	return t
}

func (t *tap) Classify(payload []byte) (Class, error) {
	start := nowNs()
	c, err := t.inner.Classify(payload)
	t.observe(hash64(payload), c, err, start, nowNs())
	return c, err
}

// hash64 is FNV-1a: seedless, so the same bytes hash alike in every run,
// and cheap next to the classification it rides on (~1 ns per byte).
func hash64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func (t *tap) FeatureWidths() []int { return t.inner.FeatureWidths() }

func (t *tap) ClassifyVector(vec []float64) (Class, error) {
	start := nowNs()
	c, err := t.inner.ClassifyVector(vec)
	var buf [8 * 16]byte
	b := buf[:0]
	for _, f := range vec {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	t.observe(hash64(b), c, err, start, nowNs())
	return c, err
}

func (t *tap) observe(h uint64, c Class, err error, start, end int64) {
	if t.recording {
		t.lastHash = h
		return
	}
	t.verdicts.Add(1)
	t.busyNs.Add(end - start)
	di, ok := t.byHash[h]
	if !ok {
		t.unknown.Add(1)
		return
	}
	d := &t.descs[di]
	if err != nil || c != d.ref {
		t.mismatched.Add(1)
	}
	inWindow := end >= t.latFrom.Load()
	if d.ambiguous {
		if inWindow {
			t.unmatched.Add(1)
		}
		return
	}
	slot := &t.armed[di]
	due := slot.due.Swap(0)
	if due == 0 {
		if inWindow {
			t.unmatched.Add(1)
		}
		return
	}
	if due >= t.latFrom.Load() {
		t.lat.add(end - due)
	}
	if tl := t.trace.Load(); tl != nil {
		tl.classified(int32(di), slot.pkt.Load(), due, start, end)
	}
}

// arm leaves a trigger packet's due time for the tap. Called by the
// generator goroutine just before the packet is sent.
func (t *tap) arm(desc int, due, pkt int64) {
	slot := &t.armed[desc]
	slot.pkt.Store(pkt)
	slot.due.Store(due)
}

// segMark is the state of the run when the PreProcess count crossed a
// segment boundary. at is stored last, so a reader that sees it non-zero
// sees the rest.
type segMark struct {
	verdicts atomic.Int64
	at       atomic.Int64 // nowNs
}

func (m *segMark) set(at, verdicts int64) {
	m.verdicts.Store(verdicts)
	m.at.Store(at)
}

// probe is the ingest.Config.PreProcess hook: it counts packets reaching
// a worker, marks segment boundaries of the saturate phase so rates can
// be reported as a median over segments, and in a traced run stamps each
// packet's arrival by its packet number (recovered from the virtual
// capture time, which is pktIdx × tick).
type probe struct {
	tap    *tap
	tickNs int64
	seen   atomic.Int64

	segBase atomic.Int64 // seen count at which segment 0 starts
	segSize atomic.Int64 // 0: no segment marking
	marks   []segMark    // marks[k]: seen == segBase + k*segSize

	arrivals atomic.Pointer[[]int64]
}

func (pr *probe) preProcess(p *Packet) {
	if arr := pr.arrivals.Load(); arr != nil {
		if i := int64(p.Time) / pr.tickNs; i < int64(len(*arr)) {
			(*arr)[i] = nowNs()
		}
	}
	c := pr.seen.Add(1)
	if size := pr.segSize.Load(); size > 0 {
		if k := c - pr.segBase.Load(); k >= 0 && k%size == 0 && int(k/size) < len(pr.marks) {
			pr.marks[k/size].set(nowNs(), pr.tap.verdicts.Load())
		}
	}
}

// waitSeen blocks until n packets have reached PreProcess.
func (pr *probe) waitSeen(n int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for pr.seen.Load() < n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// wire counts what crosses the packet listeners' accepted connections.
type wire struct {
	on    atomic.Bool
	reads atomic.Int64
	bytes atomic.Int64
}

func (w *wire) wrapListener(l net.Listener) net.Listener { return &countListener{Listener: l, w: w} }

type countListener struct {
	net.Listener
	w *wire
}

func (l *countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, w: l.w}, nil
}

type countConn struct {
	net.Conn
	w *wire
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.w.on.Load() {
		c.w.reads.Add(1)
		c.w.bytes.Add(int64(n))
	}
	return n, err
}
