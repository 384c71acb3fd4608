package flow

import (
	"math"
	"sync/atomic"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/packet"
	"iustitia/internal/stats"
)

// This file is the engine's sink: everything a verdict leaves behind for
// someone to read.

// FillStats records buffering-delay measurements for one classified flow
// (the Figure 10 quantities).
type FillStats struct {
	// Packets is c: how many data packets were needed to fill the buffer.
	Packets int
	// Delay is τ_b: virtual time from the flow's first buffered packet to
	// classification.
	Delay time.Duration
}

// sink is guarded by Engine.mu except for ec, restored and latency, which
// are atomics so Stats, health probes and metrics scrapes never serialize
// against the packet path.
type sink struct {
	ec engineCounters
	// restored holds the counter baselines of an imported checkpoint,
	// folded into Stats so counts continue across a restart: an immutable
	// snapshot behind an atomic pointer, replaced whole under mu.
	restored  atomic.Pointer[EngineStats]
	sinceCkpt int // flows routed since the last periodic checkpoint

	// Per-flow results, kept while labelCap >= 0 (EngineConfig.LabelCap).
	// With labelCap > 0, labelRing holds the ids currently in labelled in
	// insertion order and head/count delimit it, and fills is a ring of at
	// most labelCap entries whose oldest is at fillHead.
	labelCap   int
	labelled   map[ID]corpus.Class
	labelRing  []ID
	labelHead  int
	labelCount int
	fills      []FillStats
	fillHead   int

	// latency is the per-shard classification latency histogram; samples
	// is a small ring of recently classified full payload buffers, used to
	// shadow-test hot-swap candidate models against real traffic.
	latency    *stats.ConcurrentHistogram
	samples    [][]byte
	sampleNext int
}

func (s *sink) init(labelCap int) {
	s.restored.Store(&EngineStats{})
	s.labelCap = labelCap
	if labelCap >= 0 {
		s.labelled = make(map[ID]corpus.Class)
	}
	h, err := stats.NewConcurrentHistogram(latencyBins, 0, latencyBins)
	if err != nil {
		// Unreachable: the geometry is a compile-time constant.
		panic(err)
	}
	s.latency = h
}

// engineCounters is a shard's governor accounting, kept as atomics so
// Stats() is a lock-free snapshot: metrics endpoints, health probes, and
// the ops probation watcher can read a serving shard without touching
// e.mu (previously every Stats call serialized against the packet path,
// and a ParallelEngine.Stats swept all shard locks in turn).
//
// Writers still hold e.mu for the state the counters describe (the
// pending map, the LRU, the fills slice), so counter updates stay
// ordered with respect to each other on a shard; the atomics exist for
// the readers. One consequence: a reader can observe a conservation gap
// of a packet in flight (admitted bumped, classified not yet) — the
// invariant Admitted == Classified + Fallback + Dropped + Pending is
// exact only at quiescence, which is when the tests assert it.
//
// The block is padded on both ends so observer reads never bounce the
// cache line holding e.mu (immediately before it in Engine) or the
// checkpoint fields after it. Counters within the block share lines
// deliberately: they are written by the shard's own goroutine(s) under
// e.mu, so intra-block sharing costs nothing, while padding each
// counter would add ~1.5 KiB per shard for no win. The exception is
// queued: the CDB-hit fast path bumps it without taking e.mu at all
// (see ProcessID), which is what makes a cache-resident flow's packet
// lock-free end to end.
type engineCounters struct {
	_           stats.CacheLinePad
	admitted    atomic.Int64 // pending entries ever created
	shed        atomic.Int64 // flows refused admission, routed to fallback
	evicted     atomic.Int64 // pending flows force-retired to respect MaxPending
	dropped     atomic.Int64 // flows retired without any label
	failed      atomic.Int64 // classifier errors + recovered panics
	fallback    atomic.Int64 // flows labelled FallbackClass by failure/degraded mode
	classified  atomic.Int64 // real classifications (len(e.fills) under LabelCap 0)
	pending     atomic.Int64 // gauge: len(e.pend)
	migratedIn  atomic.Int64 // flows (pending + CDB records) installed by migration
	migratedOut atomic.Int64 // flows (pending + CDB records) removed by migration
	degraded    atomic.Bool  // short-circuiting to fallback; probing for recovery
	queued      [corpus.NumClasses]atomic.Int64
	_           stats.CacheLinePad
}

// routed accounts one flow's final label — real, fallback or shed.
func (s *sink) routed(id ID, label corpus.Class) {
	s.recordLabel(id, label)
	s.ec.queued[label].Add(1)
	s.sinceCkpt++
}

// classified accounts a real (non-fallback) classification of fl at now.
func (s *sink) classified(fl *pending, now time.Duration) {
	s.ec.classified.Add(1)
	if s.labelCap >= 0 {
		fill := FillStats{Packets: fl.packets, Delay: now - fl.firstSeen}
		if s.labelCap > 0 && len(s.fills) == s.labelCap {
			s.fills[s.fillHead] = fill
			s.fillHead = (s.fillHead + 1) % s.labelCap
		} else {
			s.fills = append(s.fills, fill)
		}
	}
	// The retired flow's record is about to be recycled with its buffer,
	// so the ring does not keep a pointer into it: it takes the buffer and
	// gives the record the one the sample displaces.
	if len(s.samples) < sampleRingSize {
		if buf, ok := fl.acc.giveSample(nil); ok {
			s.samples = append(s.samples, buf)
		}
	} else if buf, ok := fl.acc.giveSample(s.samples[s.sampleNext]); ok {
		s.samples[s.sampleNext] = buf
		s.sampleNext = (s.sampleNext + 1) % sampleRingSize
	}
}

// recordLabel stores a flow's final label in the ground-truth map,
// honouring labelCap: 0 keeps every label, n > 0 keeps the n most recent
// (older labels are forgotten FIFO), negative disables the map entirely.
func (s *sink) recordLabel(id ID, label corpus.Class) {
	cap := s.labelCap
	if cap < 0 {
		return
	}
	if cap > 0 {
		if _, present := s.labelled[id]; !present {
			if s.labelRing == nil {
				s.labelRing = make([]ID, cap)
			}
			if s.labelCount == cap {
				delete(s.labelled, s.labelRing[s.labelHead])
				s.labelHead = (s.labelHead + 1) % cap
				s.labelCount--
			}
			s.labelRing[(s.labelHead+s.labelCount)%cap] = id
			s.labelCount++
		}
	}
	s.labelled[id] = label
}

// Latency histogram geometry: classification cost spans four orders of
// magnitude (a 32-byte buffer decides in ~1 µs, a 1 MiB one in
// milliseconds), so samples are recorded as log2(1 + microseconds) into
// one-unit-wide bins — bin i covers [2^i - 1, 2^(i+1) - 1) µs, and 24
// bins reach ~16 s.
const latencyBins = 24

// latencyBinValue maps a classify duration onto the histogram's log2 axis.
func latencyBinValue(d time.Duration) float64 {
	if d < 0 {
		d = 0
	}
	return math.Log2(1 + float64(d.Microseconds()))
}

// sampleRingSize bounds the shadow-sample ring. A handful of recent
// buffers is enough to smoke-test a candidate model against live traffic
// without holding onto payload history.
const sampleRingSize = 16

// Label returns the engine's class decision for a flow, if it was
// classified.
func (e *Engine) Label(t packet.FiveTuple) (corpus.Class, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	label, ok := e.sink.labelled[IDOf(t)]
	return label, ok
}

// RecordedLabel returns a flow's durable verdict: the label assigned this
// process lifetime, or the CDB record carried across a checkpoint
// restore. Unlike Label it survives a rolling restart (the labelled map
// is rebuilt lazily from CDB hits, so restored verdicts would otherwise
// be invisible until the flow's next packet); unlike CDB.Lookup it does
// not perturb the record's activity clock.
func (e *Engine) RecordedLabel(t packet.FiveTuple) (corpus.Class, bool) {
	id := IDOf(t)
	e.mu.Lock()
	label, ok := e.sink.labelled[id]
	e.mu.Unlock()
	if ok {
		return label, true
	}
	return e.table.cdb.Peek(id)
}

// FillStats returns a copy of the per-flow buffering measurements gathered
// so far, oldest first: every classified flow's under LabelCap 0, the
// LabelCap most recent under LabelCap > 0, none under a negative LabelCap.
func (e *Engine) FillStats() []FillStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	fills, head := e.sink.fills, e.sink.fillHead
	return append(append([]FillStats(nil), fills[head:]...), fills[:head]...)
}

// SampleBuffers returns copies of the engine's ring of recently classified
// payload buffers (order is unspecified): the ring's own buffers go back
// into circulation as flows retire, so they never leave e.mu. Buffered mode
// only — a stream engine never retains payload and returns nil.
func (e *Engine) SampleBuffers() [][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.sink.samples) == 0 {
		return nil
	}
	out := make([][]byte, len(e.sink.samples))
	for i, buf := range e.sink.samples {
		out[i] = append([]byte(nil), buf...)
	}
	return out
}

// LatencyHistogram returns a snapshot of the engine's classification
// latency histogram (log2-microsecond bins, see latencyBins). Lock-free:
// the histogram's bins are atomics (stats.ConcurrentHistogram), so a
// metrics scrape never serializes against the packet path.
func (e *Engine) LatencyHistogram() *stats.Histogram {
	return e.sink.latency.Snapshot()
}
