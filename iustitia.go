// Package iustitia identifies the content nature of network flows — text,
// binary, or encrypted — on the fly, from the first b bytes of payload,
// reproducing "Iustitia: An Information Theoretical Approach to High-speed
// Flow Nature Identification" (Khakpour & Liu, ICDCS 2009).
//
// The key observation is that text flows have the lowest byte-stream
// entropy, encrypted flows the highest, and binary flows sit in between.
// Iustitia computes an entropy vector — the normalized entropy of every
// run of k consecutive bytes, for a handful of widths k — over a small
// buffered prefix of each new flow and feeds it to a trained classifier
// (a CART decision tree or an RBF-kernel DAGSVM).
//
// # Training a classifier
//
//	files, err := iustitia.SyntheticCorpus(42, 200, 1<<10, 16<<10)
//	if err != nil { ... }
//	clf, err := iustitia.Train(files,
//		iustitia.WithModel(iustitia.ModelSVM),
//		iustitia.WithBufferSize(32),
//	)
//
// # Classifying payloads and flows
//
//	class, err := clf.Classify(payload) // text / binary / encrypted
//
//	mon, err := iustitia.NewMonitor(clf, iustitia.WithMonitorBufferSize(32))
//	verdict, err := mon.Process(pkt) // routes packets to per-class queues
package iustitia

import (
	"errors"
	"fmt"
	"io"
	"time"

	"iustitia/internal/core"
	"iustitia/internal/corpus"
	"iustitia/internal/entest"
	"iustitia/internal/flow"
	"iustitia/internal/ml/cart"
	"iustitia/internal/ml/svm"
	"iustitia/internal/packet"
	"iustitia/internal/persist"
)

// Class is the content nature of a payload or flow.
type Class = corpus.Class

// The three content natures.
const (
	Text      = corpus.Text
	Binary    = corpus.Binary
	Encrypted = corpus.Encrypted
)

// Packet and flow substrate types, re-exported for Monitor users.
type (
	// Packet is one captured packet with a virtual timestamp.
	Packet = packet.Packet
	// FiveTuple identifies a flow.
	FiveTuple = packet.FiveTuple
	// Verdict reports what the monitor did with one packet.
	Verdict = flow.Verdict
)

// Model selects the classifier family.
type Model int

// Supported classifier families.
const (
	// ModelCART is a Gini-grown classification tree.
	ModelCART Model = iota + 1
	// ModelSVM is a DAGSVM over RBF-kernel binary machines — the paper's
	// most accurate configuration.
	ModelSVM
)

// TrainingFile is one labeled corpus file.
type TrainingFile struct {
	Class Class
	Data  []byte
}

// SyntheticCorpus deterministically generates perClass labeled files of
// each class with sizes in [minSize, maxSize] — a stand-in for the paper's
// private file pool, with matching per-class entropy bands.
func SyntheticCorpus(seed int64, perClass, minSize, maxSize int) ([]TrainingFile, error) {
	pool, err := corpus.NewGenerator(seed).Pool(perClass, minSize, maxSize)
	if err != nil {
		return nil, err
	}
	files := make([]TrainingFile, len(pool))
	for i, f := range pool {
		files[i] = TrainingFile{Class: f.Class, Data: f.Data}
	}
	return files, nil
}

// options collects Train settings.
type options struct {
	model      Model
	widths     []int
	bufferSize int
	method     core.TrainingMethod
	threshold  int
	gamma      float64
	c          float64
	seed       int64
	epsilon    float64
	delta      float64
	estimate   bool
}

// Option configures Train.
type Option func(*options)

// WithModel selects the classifier family (default ModelSVM).
func WithModel(m Model) Option { return func(o *options) { o.model = m } }

// WithFeatureWidths sets the entropy feature widths (default the paper's
// deployment set φ′_SVM = {1, 2, 3, 5} for SVM and φ′_CART = {1, 3, 4, 5}
// for CART).
func WithFeatureWidths(widths []int) Option {
	return func(o *options) { o.widths = append([]int{}, widths...) }
}

// WithBufferSize sets b, the per-flow byte budget the classifier is
// trained for; training uses the first b bytes of every file (the paper's
// preferred H_b method). Default 32.
func WithBufferSize(b int) Option { return func(o *options) { o.bufferSize = b } }

// WithWholeFileTraining trains on entire files (H_F) instead of b-byte
// prefixes.
func WithWholeFileTraining() Option {
	return func(o *options) { o.method = core.MethodWholeFile }
}

// WithRandomOffsetTraining trains on b bytes starting at a random offset
// up to threshold (H_b′), hardening the model against unknown application
// headers of at most threshold bytes.
func WithRandomOffsetTraining(threshold int) Option {
	return func(o *options) {
		o.method = core.MethodRandomOffset
		o.threshold = threshold
	}
}

// WithSVMParams overrides the RBF kernel parameters (default the paper's
// γ=50, C=1000).
func WithSVMParams(gamma, c float64) Option {
	return func(o *options) { o.gamma, o.c = gamma, c }
}

// WithSeed fixes all training randomness.
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithEstimation switches feature extraction to the (δ,ε)-approximation
// streaming entropy estimator for widths >= 2, trading accuracy for
// counter space (paper §4.4).
func WithEstimation(epsilon, delta float64) Option {
	return func(o *options) {
		o.estimate = true
		o.epsilon, o.delta = epsilon, delta
	}
}

// Classifier labels payloads with their content nature.
type Classifier struct {
	inner *core.Classifier
}

// Train builds a classifier from labeled files.
func Train(files []TrainingFile, opts ...Option) (*Classifier, error) {
	if len(files) == 0 {
		return nil, errors.New("iustitia: no training files")
	}
	o := options{
		model:      ModelSVM,
		bufferSize: 32,
		method:     core.MethodPrefix,
		gamma:      50,
		c:          1000,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if len(o.widths) == 0 {
		if o.model == ModelCART {
			o.widths = core.PhiPrimeCART
		} else {
			o.widths = core.PhiPrimeSVM
		}
	}

	pool := make([]corpus.File, len(files))
	for i, f := range files {
		if f.Class < Text || f.Class > Encrypted {
			return nil, fmt.Errorf("iustitia: file %d has unknown class %d", i, int(f.Class))
		}
		pool[i] = corpus.File{Class: f.Class, Data: f.Data}
	}

	cfg := core.TrainConfig{
		Dataset: core.DatasetConfig{
			Widths:          o.widths,
			Method:          o.method,
			BufferSize:      o.bufferSize,
			HeaderThreshold: o.threshold,
			Seed:            o.seed,
		},
		CART: cart.Config{MinLeaf: 2},
		SVM: svm.Config{
			Kernel: svm.RBF{Gamma: o.gamma},
			C:      o.c,
			Seed:   o.seed,
		},
	}
	if o.estimate {
		// Train on estimated vectors so training features match what the
		// estimator will produce online (the paper's §4.4.2 re-selection).
		trainEst, err := entest.New(o.epsilon, o.delta, o.seed)
		if err != nil {
			return nil, err
		}
		cfg.Dataset.Estimator = trainEst
	}
	switch o.model {
	case ModelCART:
		cfg.Kind = core.KindCART
	case ModelSVM:
		cfg.Kind = core.KindSVM
	default:
		return nil, fmt.Errorf("iustitia: unknown model %d", int(o.model))
	}

	inner, err := core.Train(pool, cfg)
	if err != nil {
		return nil, err
	}
	c := &Classifier{inner: inner}
	if o.estimate {
		if err := c.EnableEstimation(o.epsilon, o.delta, o.seed); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Classify labels a payload prefix. The payload must be at least as long
// as the classifier's widest feature.
func (c *Classifier) Classify(payload []byte) (Class, error) {
	return c.inner.Classify(payload)
}

// ClassifyVector labels an already-computed entropy vector whose entries
// correspond to FeatureWidths — e.g. one maintained online by a streaming
// estimator.
func (c *Classifier) ClassifyVector(vec []float64) (Class, error) {
	return c.inner.ClassifyVector(vec)
}

// Features returns the entropy vector the classifier extracts from a
// payload, mostly useful for inspection and debugging.
func (c *Classifier) Features(payload []byte) ([]float64, error) {
	return c.inner.Features(payload)
}

// FeatureWidths returns the entropy widths (k values) in use.
func (c *Classifier) FeatureWidths() []int { return c.inner.Widths() }

// EnableEstimation switches feature extraction to the (δ,ε)-approximation
// estimator at runtime.
func (c *Classifier) EnableEstimation(epsilon, delta float64, seed int64) error {
	est, err := entest.New(epsilon, delta, seed)
	if err != nil {
		return err
	}
	c.inner.UseEstimator(est)
	return nil
}

// DisableEstimation reverts to exact entropy calculation.
func (c *Classifier) DisableEstimation() { c.inner.UseEstimator(nil) }

// Swap atomically installs next's trained model as this classifier's,
// returning a classifier holding the previous model so the caller can
// swap back. Safe under concurrent Classify calls — in-flight
// classifications finish on whichever model they started with — which is
// what lets a serving deployment hot-swap a retrained model without
// draining the stream. The estimation setting is not swapped.
func (c *Classifier) Swap(next *Classifier) (prev *Classifier) {
	return &Classifier{inner: c.inner.Swap(next.inner)}
}

// Save persists the classifier as JSON.
func (c *Classifier) Save(w io.Writer) error { return c.inner.Save(w) }

// LoadClassifier restores a classifier written by Save.
func LoadClassifier(r io.Reader) (*Classifier, error) {
	inner, err := core.Load(r)
	if err != nil {
		return nil, err
	}
	return &Classifier{inner: inner}, nil
}

// SaveSnapshot persists the classifier as a versioned, CRC-checksummed
// binary snapshot, written atomically (write-temp-then-rename): a crash
// mid-write can never corrupt an existing snapshot at path.
func (c *Classifier) SaveSnapshot(path string) error {
	payload, err := c.inner.EncodeSnapshot()
	if err != nil {
		return err
	}
	return persist.SaveFile(path, persist.KindClassifier, payload)
}

// LoadClassifierSnapshot restores a classifier written by SaveSnapshot.
// A truncated, bit-flipped, wrong-version, or wrong-kind snapshot
// returns a typed error (persist.ErrCorrupt, persist.ErrVersion,
// persist.ErrKind) — never a silently wrong model.
func LoadClassifierSnapshot(path string) (*Classifier, error) {
	payload, err := persist.LoadFile(path, persist.KindClassifier)
	if err != nil {
		return nil, err
	}
	inner, err := core.DecodeSnapshot(payload)
	if err != nil {
		return nil, err
	}
	return &Classifier{inner: inner}, nil
}

// EvictionPolicy selects what a capped monitor does when a new flow
// arrives at a full pending table.
type EvictionPolicy = flow.EvictPolicy

// The eviction policies for WithPendingCap.
const (
	// EvictOldest drops the least-recently-active pending flow.
	EvictOldest = flow.EvictOldest
	// EvictClassifyPartial classifies the least-recently-active pending
	// flow on its partial buffer.
	EvictClassifyPartial = flow.EvictClassifyPartial
	// EvictShed refuses the new flow and routes it to the fallback class.
	EvictShed = flow.EvictShed
)

// monitorOptions collects Monitor settings.
type monitorOptions struct {
	bufferSize      int
	stripHeaders    bool
	headerThreshold int
	idleFlush       time.Duration
	purgeOnClose    bool
	purgeInactive   bool
	inactivityN     float64
	randomSkipMax   int
	reclassifyAfter time.Duration
	seed            int64
	maxPending      int
	eviction        EvictionPolicy
	fallback        Class
	tolerate        bool
	tripAfter       int
	probeEvery      int
	labelCap        int
	cdbCap          int
	checkpointEvery int
	onCheckpoint    func([]byte)
}

// MonitorOption configures NewMonitor.
type MonitorOption func(*monitorOptions)

// WithMonitorBufferSize sets b, the bytes buffered per new flow before
// classification (default 32, the paper's fast configuration).
func WithMonitorBufferSize(b int) MonitorOption {
	return func(o *monitorOptions) { o.bufferSize = b }
}

// WithHeaderStripping removes recognized application-layer headers
// (HTTP/SMTP/POP3/IMAP/FTP) before buffering, and skips threshold bytes of
// flows whose header is not recognized.
func WithHeaderStripping(threshold int) MonitorOption {
	return func(o *monitorOptions) {
		o.stripHeaders = true
		o.headerThreshold = threshold
	}
}

// WithIdleFlush classifies flows with partially filled buffers after they
// have been quiet this long.
func WithIdleFlush(d time.Duration) MonitorOption {
	return func(o *monitorOptions) { o.idleFlush = d }
}

// WithPurging enables both CDB purge policies: removal on FIN/RST and the
// n·λ inactivity rule (the paper finds n = 4 optimal).
func WithPurging(n float64) MonitorOption {
	return func(o *monitorOptions) {
		o.purgeOnClose = true
		o.purgeInactive = true
		o.inactivityN = n
	}
}

// WithAntiEvasion enables the paper's §4.6 countermeasures against flows
// that prepend deceiving padding: each new flow skips a uniform random
// number of bytes in [0, maxSkip] before buffering, and classification
// decisions expire after reclassifyAfter (zero keeps them forever),
// forcing long-lived flows to be re-examined.
func WithAntiEvasion(maxSkip int, reclassifyAfter time.Duration) MonitorOption {
	return func(o *monitorOptions) {
		o.randomSkipMax = maxSkip
		o.reclassifyAfter = reclassifyAfter
	}
}

// WithMonitorSeed fixes the monitor's randomness (the anti-evasion skip
// draws).
func WithMonitorSeed(seed int64) MonitorOption {
	return func(o *monitorOptions) { o.seed = seed }
}

// WithPendingCap bounds the pending-flow table at maxFlows so monitor
// memory stays O(maxFlows) under flow churn, applying policy when a new
// flow arrives at a full table. An inline deployment should always set
// this.
func WithPendingCap(maxFlows int, policy EvictionPolicy) MonitorOption {
	return func(o *monitorOptions) {
		o.maxPending = maxFlows
		o.eviction = policy
	}
}

// WithFallbackClass sets the queue used for shed flows and tolerated
// classification failures (default Text).
func WithFallbackClass(c Class) MonitorOption {
	return func(o *monitorOptions) { o.fallback = c }
}

// WithFaultTolerance routes flows whose classification errored or
// panicked to the fallback class instead of surfacing the error, and
// arms the degraded-mode breaker: after tripAfter consecutive failures
// the monitor short-circuits to the fallback queue, probing the real
// classifier every probeEvery-th flow until it recovers. Zero values pick
// the defaults (8 and 64).
func WithFaultTolerance(tripAfter, probeEvery int) MonitorOption {
	return func(o *monitorOptions) {
		o.tolerate = true
		o.tripAfter = tripAfter
		o.probeEvery = probeEvery
	}
}

// WithLabelCap bounds the per-flow results behind Label and FillStats:
// n > 0 keeps the n most recently labelled flows and the n most recent
// fills, negative disables both entirely (the memory-tightest choice), 0
// keeps every label and every fill forever (the default).
func WithLabelCap(n int) MonitorOption {
	return func(o *monitorOptions) { o.labelCap = n }
}

// WithCDBCap hard-caps the classification database at n records,
// evicting the oldest under pressure; evicted flows are simply
// reclassified if they come back.
func WithCDBCap(n int) MonitorOption {
	return func(o *monitorOptions) { o.cdbCap = n }
}

// WithCheckpoint fires fn with a durable snapshot of the monitor's state
// (counters + classification database) after every n classified flows.
// The snapshot bytes are a checkpoint payload: persist them with
// persist.SaveFile(path, persist.KindCheckpoint, snapshot) or feed them
// back through Restore after a restart. fn runs synchronously on the
// packet path — hand the bytes off quickly.
func WithCheckpoint(n int, fn func(snapshot []byte)) MonitorOption {
	return func(o *monitorOptions) {
		o.checkpointEvery = n
		o.onCheckpoint = fn
	}
}

// Monitor is the online flow-classification pipeline of the paper's
// Figure 1: it hashes packet headers to flow IDs, answers repeat packets
// from the classification database, buffers new flows up to b bytes,
// classifies them, and routes packets to per-class output queues.
type Monitor struct {
	engine *flow.Engine
}

// NewMonitor builds a monitor around a trained classifier.
func NewMonitor(c *Classifier, opts ...MonitorOption) (*Monitor, error) {
	if c == nil {
		return nil, errors.New("iustitia: nil classifier")
	}
	o := monitorOptions{bufferSize: 32, inactivityN: 4}
	for _, opt := range opts {
		opt(&o)
	}
	engine, err := flow.NewEngine(flow.EngineConfig{
		BufferSize:        o.bufferSize,
		Classifier:        c.inner,
		StripKnownHeaders: o.stripHeaders,
		HeaderThreshold:   o.headerThreshold,
		IdleFlush:         o.idleFlush,
		RandomSkipMax:     o.randomSkipMax,
		Seed:              o.seed,
		MaxPending:        o.maxPending,
		Eviction:          o.eviction,
		FallbackClass:     o.fallback,
		LabelCap:          o.labelCap,
		CheckpointEvery:   o.checkpointEvery,
		OnCheckpoint:      o.onCheckpoint,
		Faults: flow.FaultPolicy{
			Tolerate:   o.tolerate,
			TripAfter:  o.tripAfter,
			ProbeEvery: o.probeEvery,
		},
		CDB: flow.CDBConfig{
			PurgeOnClose:  o.purgeOnClose,
			PurgeInactive: o.purgeInactive,
			N:             o.inactivityN,
			MaxAge:        o.reclassifyAfter,
			MaxRecords:    o.cdbCap,
		},
	})
	if err != nil {
		return nil, err
	}
	return &Monitor{engine: engine}, nil
}

// Process handles one packet at its virtual capture time.
func (m *Monitor) Process(p *Packet) (Verdict, error) { return m.engine.Process(p) }

// FlushIdle classifies pending flows quiet longer than the configured idle
// window, returning how many were classified.
func (m *Monitor) FlushIdle(now time.Duration) (int, error) { return m.engine.FlushIdle(now) }

// FlushAll classifies every pending flow — call at end of capture.
func (m *Monitor) FlushAll(now time.Duration) (int, error) { return m.engine.FlushAll(now) }

// Label returns the monitor's decision for a flow, if it has one.
func (m *Monitor) Label(t FiveTuple) (Class, bool) { return m.engine.Label(t) }

// Checkpoint returns an on-demand durable snapshot of the monitor's
// state (counters + classification database).
func (m *Monitor) Checkpoint() []byte { return m.engine.ExportCheckpoint() }

// Restore folds a snapshot produced by Checkpoint (or a WithCheckpoint
// hook) into this monitor: classification counts continue and flows in
// the restored database are answered without re-classification. A
// corrupt snapshot returns an error wrapping persist.ErrCorrupt and
// leaves the monitor unchanged.
func (m *Monitor) Restore(snapshot []byte) error { return m.engine.ImportCheckpoint(snapshot) }

// Stats summarizes monitor activity.
type Stats struct {
	// Pending is the number of flows still filling their buffers.
	Pending int
	// Classified is the number of flows labeled so far.
	Classified int
	// QueueCounts are packets routed per class queue, indexed by Class.
	QueueCounts [corpus.NumClasses]int
	// CDBSize is the number of live classification-database records.
	CDBSize int
	// Shed counts flows refused admission at the pending cap and routed
	// to the fallback queue.
	Shed int
	// Evicted counts pending flows force-retired to respect the cap.
	Evicted int
	// Failed counts classifier errors and recovered classifier panics.
	Failed int
	// Fallback counts flows labelled the fallback class because their
	// classification failed or the monitor was degraded.
	Fallback int
	// Degraded reports whether the monitor is currently short-circuiting
	// classification to the fallback queue.
	Degraded bool
}

// FlowFill describes the buffering cost of one classified flow: how many
// data packets were needed to fill the b-byte buffer (the paper's c) and
// the virtual time from the flow's first packet to its classification
// (τ_b).
type FlowFill struct {
	Packets int
	Delay   time.Duration
}

// FillStats returns per-flow buffering measurements — the Figure 10
// quantities — oldest first, for every flow classified so far (for the
// most recent n under WithLabelCap(n > 0), none under a negative cap).
func (m *Monitor) FillStats() []FlowFill {
	raw := m.engine.FillStats()
	out := make([]FlowFill, len(raw))
	for i, f := range raw {
		out[i] = FlowFill{Packets: f.Packets, Delay: f.Delay}
	}
	return out
}

// Stats returns a snapshot of monitor counters.
func (m *Monitor) Stats() Stats {
	s := m.engine.Stats()
	return Stats{
		Pending:     s.Pending,
		Classified:  s.Classified,
		QueueCounts: s.QueueCounts,
		CDBSize:     s.CDB.Size,
		Shed:        s.Shed,
		Evicted:     s.Evicted,
		Failed:      s.Failed,
		Fallback:    s.Fallback,
		Degraded:    s.Degraded > 0,
	}
}
