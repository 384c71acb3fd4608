package flow

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"iustitia/internal/appheader"
	"iustitia/internal/corpus"
	"iustitia/internal/entest"
	"iustitia/internal/packet"
)

// Classifier labels a buffered payload prefix with its content nature.
// Implementations are the entropy-vector + CART/SVM classifiers from
// internal/core; tests may plug anything. The payload is only valid during
// the call: the engine reuses the buffer for a later flow.
type Classifier interface {
	Classify(payload []byte) (corpus.Class, error)
}

// ClassifierFunc adapts a function to the Classifier interface.
type ClassifierFunc func(payload []byte) (corpus.Class, error)

// Classify implements Classifier.
func (f ClassifierFunc) Classify(payload []byte) (corpus.Class, error) { return f(payload) }

// VectorClassifier is the classifier surface stream mode needs: besides
// labelling raw payloads it can label an already-computed entropy vector
// and declares which feature widths that vector must carry.
// *iustitia.Classifier implements it.
type VectorClassifier interface {
	Classifier
	// FeatureWidths returns the element widths of the model's feature
	// vector, in feature order.
	FeatureWidths() []int
	// ClassifyVector labels an entropy vector laid out per FeatureWidths.
	ClassifyVector(vec []float64) (corpus.Class, error)
}

// StreamConfig switches the engine to constant-memory stream
// classification: per-flow state becomes an entest.StreamVector sketch
// (g·z counters) instead of the b-byte payload buffer. Classification
// fires on the same triggers — b payload bytes consumed, idle flush, or
// teardown — but from the sketch's entropy vector, so resident bytes per
// pending flow are bounded by the counter budget no matter how large b is.
// The engine's Classifier must implement VectorClassifier.
type StreamConfig struct {
	// Epsilon and Delta are the (δ,ε)-approximation parameters sizing the
	// per-flow counter budget.
	Epsilon float64
	Delta   float64
	// Sketch selects the per-width backend. iustitia-serve defaults to
	// entest.SketchCC, the backend the benchmark measures; the zero value
	// stays entest.SketchLall because the kind is on the sketch wire format.
	Sketch entest.SketchKind
	// Seed drives the sketches' sampling streams. It is engine-wide — every
	// shard of a ParallelEngine uses the same value — so a sketch exported
	// by one shard restores bit-exactly on any other.
	Seed int64
}

// EngineConfig assembles an online flow-classification engine.
type EngineConfig struct {
	// BufferSize is b: payload bytes buffered per new flow before its
	// entropy vector is extracted. Must be positive.
	BufferSize int
	// Classifier labels filled buffers. Required.
	Classifier Classifier
	// CDB tunes the classification database.
	CDB CDBConfig
	// Stream, when non-nil, replaces per-flow payload buffering with
	// constant-memory sketching (see StreamConfig). Requires Classifier to
	// implement VectorClassifier.
	Stream *StreamConfig
	// StripKnownHeaders removes recognized application-layer headers
	// (HTTP/SMTP/POP3/IMAP/FTP) from the head of a flow before buffering.
	StripKnownHeaders bool
	// HeaderThreshold is T: payload bytes skipped at the start of every
	// flow whose header is not recognized, jumping over unknown
	// application headers. Zero disables skipping.
	HeaderThreshold int
	// IdleFlush classifies a partially filled buffer once the flow has
	// been quiet this long, so short flows are not stuck unbuffered
	// forever ("when the buffer stops receiving packets for a certain
	// period of time"). Zero disables idle flushing; call FlushAll at end
	// of trace instead.
	IdleFlush time.Duration
	// RandomSkipMax, when positive, skips a uniform random number of
	// payload bytes in [0, RandomSkipMax] at the start of every new flow
	// before buffering — the paper's §4.6 countermeasure against
	// attackers who prepend deceiving (e.g. encrypted-looking) padding to
	// dodge deep inspection. The skip is applied on top of header
	// stripping/thresholds.
	RandomSkipMax int
	// Seed drives the random-skip draws.
	Seed int64
	// MaxPending caps the pending-flow table so per-flow state stays
	// O(MaxPending) under flow churn. Zero leaves it unbounded (the
	// original behaviour); an inline deployment should always set it.
	MaxPending int
	// Eviction selects what happens when a new flow arrives at a full
	// pending table (default EvictOldest). Ignored while MaxPending is 0.
	Eviction EvictPolicy
	// FallbackClass is the queue used for shed flows and — under
	// Faults.Tolerate — flows whose classification failed. Defaults to
	// corpus.Text (class zero); set it to the class whose queue treatment
	// is the safest default for the deployment.
	FallbackClass corpus.Class
	// Faults is the classifier fault-tolerance policy.
	Faults FaultPolicy
	// LabelCap bounds the per-flow results behind Label and FillStats:
	// 0 keeps every label and every fill forever (the original
	// behaviour), n > 0 keeps only the n most recently labelled flows and
	// the n most recent fills, negative keeps no per-flow results at all —
	// no labels, no FillStats — for a long-running node that reads neither
	// (RecordedLabel still answers from the CDB).
	LabelCap int
	// CheckpointEvery, with OnCheckpoint, fires a durable snapshot after
	// every N classified flows. Zero disables periodic checkpoints;
	// ExportCheckpoint is always available on demand.
	CheckpointEvery int
	// OnCheckpoint receives a fresh ExportCheckpoint payload. It is
	// invoked outside the engine lock (so it may call engine methods) and
	// synchronously on the packet path — hand the bytes off quickly.
	OnCheckpoint func(snapshot []byte)
}

// Verdict reports what the engine did with one packet.
type Verdict struct {
	// Queue is the output queue (class) the packet was routed to.
	Queue corpus.Class
	// Routed is false while the flow is still being buffered.
	Routed bool
	// FromCDB is true when the label came from a CDB hit.
	FromCDB bool
	// Classified is true on the single packet that completed the flow's
	// buffer and triggered classification.
	Classified bool
	// Fallback is true when Queue is the engine's fallback class chosen
	// by load shedding, a classification failure, or degraded mode —
	// not by the classifier.
	Fallback bool
}

// flowProgress is the part of a pending flow that is not payload: header
// handling and timing. Checkpoints and migrations carry it verbatim.
type flowProgress struct {
	skipLeft   int
	checkedHdr bool
	// headerCont is set when a recognized HTTP header did not finish
	// inside the first packet: subsequent payload is discarded until the
	// blank-line terminator is found (tail carries the last bytes of the
	// previous chunk so a terminator split across packets still matches).
	headerCont  bool
	headerTail  []byte
	headerSpent int
	firstSeen   time.Duration
	lastSeen    time.Duration
	packets     int
}

// pending is a flow that has not been classified yet.
type pending struct {
	acc accumulator
	flowProgress
	// id, prev and next thread the flow into the table's recency list, used
	// for O(1) eviction of the least-recently-active flow at MaxPending; a
	// retired record on the table's free list is linked through next alone.
	id         ID
	prev, next *pending
}

// maxHeaderSpan caps how many bytes a multi-packet application header may
// consume before the engine gives up and buffers raw payload.
const maxHeaderSpan = 8 << 10

// Engine is the online flow classifier. It is safe for concurrent use,
// though trace replay is typically sequential. Its state is grouped along
// four seams: the per-flow accumulator (accumulator.go), the flow table
// (table.go), the decider (decider.go) and the sink (sink.go).
type Engine struct {
	// cfg is immutable after NewEngine. The live-tunable MaxPending,
	// Eviction and IdleFlush are copied into table and read only there.
	cfg EngineConfig
	acc *accumulatorSpec

	mu      sync.Mutex
	rng     *rand.Rand // guarded by mu; drives random-skip draws
	table   flowTable  // guarded by mu, except the CDB (own lock)
	decider decider    // guarded by mu
	sink    sink       // guarded by mu, except its atomics
}

// NewEngine validates cfg and builds an engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.BufferSize <= 0 {
		return nil, errors.New("flow: buffer size must be positive")
	}
	if cfg.Classifier == nil {
		return nil, errors.New("flow: classifier is required")
	}
	if cfg.HeaderThreshold < 0 {
		return nil, fmt.Errorf("flow: negative header threshold %d", cfg.HeaderThreshold)
	}
	if cfg.RandomSkipMax < 0 {
		return nil, fmt.Errorf("flow: negative random skip %d", cfg.RandomSkipMax)
	}
	if cfg.MaxPending < 0 {
		return nil, fmt.Errorf("flow: negative pending cap %d", cfg.MaxPending)
	}
	if cfg.Eviction < EvictOldest || cfg.Eviction > EvictShed {
		return nil, fmt.Errorf("flow: unknown eviction policy %d", int(cfg.Eviction))
	}
	if cfg.FallbackClass < 0 || cfg.FallbackClass >= corpus.NumClasses {
		return nil, fmt.Errorf("flow: fallback class %d out of range", int(cfg.FallbackClass))
	}
	acc, err := newAccumulatorSpec(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg: cfg,
		acc: acc,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		table: flowTable{
			pend:       make(map[ID]*pending),
			cdb:        NewCDB(cfg.CDB),
			maxPending: cfg.MaxPending,
			eviction:   cfg.Eviction,
			idleFlush:  cfg.IdleFlush,
		},
		decider: decider{faults: cfg.Faults.withDefaults(), fallback: cfg.FallbackClass},
	}
	e.sink.init(cfg.LabelCap)
	return e, nil
}

// StreamCounters returns the per-flow counter budget of stream mode (the
// resident state replacing the b-byte buffer), or 0 for a buffered engine.
func (e *Engine) StreamCounters() int { return e.acc.counters }

// CDB exposes the engine's classification database for inspection.
func (e *Engine) CDB() *CDB { return e.table.cdb }

// Process handles one packet at its virtual capture time and returns the
// engine's verdict.
func (e *Engine) Process(p *packet.Packet) (Verdict, error) {
	if p == nil {
		return Verdict{}, errors.New("flow: nil packet")
	}
	return e.ProcessID(IDOf(p.Tuple), p)
}

// ProcessID is Process with the flow ID already computed: the ingest
// reader hashes each tuple once to pick a worker, and the batch path hands
// that id through here instead of re-running SHA-1 per packet. id must be
// IDOf(p.Tuple). Nothing of p is retained past the call.
func (e *Engine) ProcessID(id ID, p *packet.Packet) (Verdict, error) {
	if p == nil {
		return Verdict{}, errors.New("flow: nil packet")
	}
	// TCP teardown: purge the CDB record; the packet itself carries no
	// payload to route.
	if p.Flags.Has(packet.FlagFIN) || p.Flags.Has(packet.FlagRST) {
		e.table.cdb.Close(id)
		e.mu.Lock()
		if fl := e.table.pend[id]; fl != nil {
			e.dropLocked(id, fl)
		}
		e.mu.Unlock()
		return Verdict{}, nil
	}

	if label, ok := e.table.cdb.Lookup(id, p.Time); ok {
		// The CDB-hit fast path — the common case once a flow is labelled —
		// never takes e.mu: the queue counter is atomic.
		e.sink.ec.queued[label].Add(1)
		return Verdict{Queue: label, Routed: true, FromCDB: true}, nil
	}
	if !p.IsData() {
		return Verdict{}, nil
	}

	v, err := e.processData(id, p)
	e.maybeCheckpoint()
	return v, err
}

// processData admits/buffers one data packet under the engine lock and
// classifies the flow if this packet filled its buffer.
func (e *Engine) processData(id ID, p *packet.Packet) (Verdict, error) {
	e.mu.Lock()
	defer e.mu.Unlock()

	fl := e.table.pend[id]
	if fl == nil {
		if e.table.full() {
			if e.table.eviction == EvictShed {
				return e.shedLocked(id, p.Time), nil
			}
			e.evictOneLocked(p.Time)
		}
		fl = e.table.newPending(accumulator{spec: e.acc}, flowProgress{firstSeen: p.Time, skipLeft: -1})
		e.admitLocked(id, fl)
	} else {
		e.table.touch(fl)
	}
	fl.lastSeen = p.Time
	fl.packets++

	payload := p.Payload
	if !fl.checkedHdr {
		// First data packet decides header handling for the whole flow.
		fl.checkedHdr = true
		fl.skipLeft = e.cfg.HeaderThreshold
		if e.cfg.StripKnownHeaders {
			if stripped, proto := appheader.Strip(payload); proto != appheader.Unknown {
				fl.skipLeft = 0
				if proto == appheader.HTTP && len(stripped) == 0 && !endsHeader(payload) {
					// The header did not finish in this packet: keep
					// discarding until its blank-line terminator.
					fl.headerCont = true
					fl.headerTail = tailOf(payload)
					fl.headerSpent = len(payload)
				}
				payload = stripped
			}
		}
		if e.cfg.RandomSkipMax > 0 {
			fl.skipLeft += e.rng.Intn(e.cfg.RandomSkipMax + 1)
		}
	} else if fl.headerCont {
		payload = fl.continueHeader(payload)
	}
	if fl.skipLeft > 0 {
		if fl.skipLeft >= len(payload) {
			fl.skipLeft -= len(payload)
			return Verdict{}, nil
		}
		payload = payload[fl.skipLeft:]
		fl.skipLeft = 0
	}

	fl.acc.write(payload)
	if !fl.acc.ready() {
		return Verdict{}, nil
	}
	return e.classifyLocked(id, fl, p.Time)
}

// headerTerminator ends an HTTP header.
var headerTerminator = []byte("\r\n\r\n")

// endsHeader reports whether chunk ends in a blank line Strip takes for the
// end of an HTTP header (bare LF included). Strip leaves nothing both for
// a header that is still open and for one that closes on the packet's last
// byte; only the first has more header to discard.
func endsHeader(chunk []byte) bool {
	return bytes.HasSuffix(chunk, headerTerminator) || bytes.HasSuffix(chunk, []byte("\n\n"))
}

// tailOf returns the last len(headerTerminator)-1 bytes of chunk, for
// matching a terminator split across packet boundaries.
func tailOf(chunk []byte) []byte {
	keep := len(headerTerminator) - 1
	if len(chunk) < keep {
		keep = len(chunk)
	}
	return append([]byte(nil), chunk[len(chunk)-keep:]...)
}

// continueHeader consumes payload while a multi-packet HTTP header is
// still open, returning the content bytes after its terminator (nil while
// the header continues). After maxHeaderSpan bytes it gives up and buffers
// payload raw.
func (fl *flowProgress) continueHeader(payload []byte) []byte {
	joined := append(append([]byte(nil), fl.headerTail...), payload...)
	if i := bytes.Index(joined, headerTerminator); i >= 0 {
		fl.headerCont = false
		fl.headerTail = nil
		return joined[i+len(headerTerminator):]
	}
	fl.headerSpent += len(payload)
	if fl.headerSpent > maxHeaderSpan {
		fl.headerCont = false
		fl.headerTail = nil
		return payload
	}
	fl.headerTail = tailOf(joined)
	return nil
}

// classifyLocked labels a ready (or flushed) flow, updates the CDB and
// queues, and retires the pending state. The flow is retired on every
// path — including classification failure — so no flow is ever
// re-classified on each subsequent packet. Caller holds e.mu.
func (e *Engine) classifyLocked(id ID, fl *pending, now time.Duration) (Verdict, error) {
	e.retireLocked(id, fl)
	defer e.table.recycle(fl)
	start := time.Now()
	label, fellBack, err := e.decider.decide(&fl.acc, &e.sink.ec)
	e.sink.latency.Observe(latencyBinValue(time.Since(start)))
	if err != nil {
		e.sink.ec.dropped.Add(1)
		return Verdict{}, fmt.Errorf("flow: classify: %w", err)
	}
	e.table.cdb.Insert(id, label, now)
	e.sink.routed(id, label)
	if fellBack {
		e.sink.ec.fallback.Add(1)
	} else {
		e.sink.classified(fl, now)
	}
	return Verdict{Queue: label, Routed: true, Classified: true, Fallback: fellBack}, nil
}

// FlushIdle classifies every pending flow quiet for at least the
// configured IdleFlush at virtual time now. It returns how many flows were
// flushed. Flows whose buffers are still empty (e.g. all bytes consumed by
// header skipping) are dropped unclassified.
func (e *Engine) FlushIdle(now time.Duration) (int, error) {
	// The predicate runs under e.mu (flush holds it), which is what makes
	// IdleFlush safe to retune live via SetIdleFlush.
	n, err := e.flush(func(fl *pending) bool {
		idle := e.table.idleFlush
		return idle > 0 && now-fl.lastSeen >= idle
	}, now)
	e.maybeCheckpoint()
	return n, err
}

// FlushAll classifies every pending flow regardless of idle time — the end
// of a trace replay.
func (e *Engine) FlushAll(now time.Duration) (int, error) {
	n, err := e.flush(func(*pending) bool { return true }, now)
	e.maybeCheckpoint()
	return n, err
}

// flush classifies every due pending flow. A classification failure on
// one flow no longer aborts the pass: the failed flow is retired, the
// remaining due flows are still processed, and the per-flow errors come
// back joined so the caller sees every failure at once.
func (e *Engine) flush(due func(*pending) bool, now time.Duration) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	flushed := 0
	var errs []error
	for id, fl := range e.table.pend {
		if !due(fl) {
			continue
		}
		if !fl.acc.hasData() {
			e.dropLocked(id, fl)
			continue
		}
		if _, err := e.classifyLocked(id, fl, now); err != nil {
			errs = append(errs, fmt.Errorf("flow %x: %w", id[:4], err))
			continue
		}
		flushed++
	}
	return flushed, errors.Join(errs...)
}

// EngineStats is a point-in-time summary of engine activity. The
// governor counters obey a conservation law the fault-injection tests
// assert: Admitted == Classified + Fallback + Dropped + Pending, and
// every flow the engine ever saw is either admitted or shed.
type EngineStats struct {
	Pending     int
	Classified  int
	QueueCounts [corpus.NumClasses]int
	CDB         CDBStats

	// Admitted counts pending-table entries ever created.
	Admitted int
	// Shed counts flows refused admission at MaxPending (EvictShed) and
	// routed straight to the fallback queue.
	Shed int
	// Evicted counts pending flows force-retired to respect MaxPending
	// (dropped under EvictOldest, partially classified under
	// EvictClassifyPartial).
	Evicted int
	// Dropped counts flows retired without any label: evict-oldest
	// victims, teardown (FIN/RST) while pending, empty buffers at flush,
	// and strict-mode classification failures.
	Dropped int
	// Failed counts classifier errors and recovered classifier panics.
	Failed int
	// Fallback counts flows labelled FallbackClass because their
	// classification failed or the engine was degraded.
	Fallback int
	// Degraded counts engines currently in degraded mode: 0 or 1 for an
	// Engine, up to the shard count for a ParallelEngine.
	Degraded int
	// MigratedIn counts pending flows and CDB records installed by a
	// flow-table migration (ImportFlows).
	MigratedIn int
	// MigratedOut counts pending flows and CDB records removed by a
	// flow-table migration (ExportFlows).
	MigratedOut int
}

// add accumulates s into the receiver (used by ParallelEngine).
func (a *EngineStats) add(s EngineStats) {
	a.Pending += s.Pending
	a.Classified += s.Classified
	for c := range a.QueueCounts {
		a.QueueCounts[c] += s.QueueCounts[c]
	}
	a.CDB.add(s.CDB)
	a.Admitted += s.Admitted
	a.Shed += s.Shed
	a.Evicted += s.Evicted
	a.Dropped += s.Dropped
	a.Failed += s.Failed
	a.Fallback += s.Fallback
	a.Degraded += s.Degraded
	a.MigratedIn += s.MigratedIn
	a.MigratedOut += s.MigratedOut
}

// Stats returns a snapshot of engine counters. It is lock-free: every
// counter is an atomic, so a metrics scrape or health probe never
// serializes against the packet path. Counters are read one by one, so
// a snapshot taken while packets are in flight can be transiently
// inconsistent (e.g. Admitted bumped before Classified); the
// conservation law is exact at quiescence.
func (e *Engine) Stats() EngineStats {
	ec, r := &e.sink.ec, e.sink.restored.Load()
	s := EngineStats{
		Pending:     int(ec.pending.Load()),
		Classified:  int(ec.classified.Load()) + r.Classified,
		CDB:         e.table.cdb.Stats(),
		Admitted:    int(ec.admitted.Load()) + r.Admitted,
		Shed:        int(ec.shed.Load()) + r.Shed,
		Evicted:     int(ec.evicted.Load()) + r.Evicted,
		Dropped:     int(ec.dropped.Load()) + r.Dropped,
		Failed:      int(ec.failed.Load()) + r.Failed,
		Fallback:    int(ec.fallback.Load()) + r.Fallback,
		MigratedIn:  int(ec.migratedIn.Load()),
		MigratedOut: int(ec.migratedOut.Load()),
	}
	for i := range s.QueueCounts {
		s.QueueCounts[i] = int(ec.queued[i].Load()) + r.QueueCounts[i]
	}
	if ec.degraded.Load() {
		s.Degraded = 1
	}
	return s
}

// Degraded reports whether the engine is currently short-circuiting
// classification to the fallback queue. Lock-free.
func (e *Engine) Degraded() bool {
	return e.sink.ec.degraded.Load()
}
