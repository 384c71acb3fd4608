// Package core assembles Iustitia's primary contribution: training a
// content-nature classifier from a file corpus via entropy-vector features
// and serving it online. It binds the substrates together — corpus files
// are reduced to entropy vectors (exact or (δ,ε)-estimated), a CART tree or
// DAGSVM model is trained on them with one of the paper's three training
// methods (H_F whole-file, H_b first-b-bytes, H_b′ random-offset), and the
// resulting Classifier plugs into the flow engine as its classification
// module.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"

	"iustitia/internal/corpus"
	"iustitia/internal/entest"
	"iustitia/internal/entropy"
	"iustitia/internal/ml/cart"
	"iustitia/internal/ml/dataset"
	"iustitia/internal/ml/svm"
)

// Feature-width sets from the paper (values are element widths k, so the
// feature h_k is computed over k-byte elements).
var (
	// AllWidths is the full H_F = <h_1 .. h_10> feature vector.
	AllWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// PhiCART is the tree-voting selection φ_CART = {h1, h3, h4, h10}.
	PhiCART = []int{1, 3, 4, 10}
	// PhiSVM is the SFS selection φ_SVM = {h1, h2, h3, h9}.
	PhiSVM = []int{1, 2, 3, 9}
	// PhiPrimeCART is the deployment set φ′_CART = {h1, h3, h4, h5}.
	PhiPrimeCART = []int{1, 3, 4, 5}
	// PhiPrimeSVM is the deployment set φ′_SVM = {h1, h2, h3, h5}.
	PhiPrimeSVM = []int{1, 2, 3, 5}
)

// ModelKind selects the classification model family.
type ModelKind int

// Supported model kinds.
const (
	KindCART ModelKind = iota + 1
	KindSVM
)

// String implements fmt.Stringer.
func (k ModelKind) String() string {
	switch k {
	case KindCART:
		return "cart"
	case KindSVM:
		return "svm"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// TrainingMethod selects which bytes of each training file feed the
// entropy vector (paper §4.3).
type TrainingMethod int

// The paper's three training methods.
const (
	// MethodWholeFile trains on H_F, the entropy vector of the entire
	// file.
	MethodWholeFile TrainingMethod = iota + 1
	// MethodPrefix trains on H_b, the entropy vector of the first b
	// bytes.
	MethodPrefix
	// MethodRandomOffset trains on H_b′: b consecutive bytes starting at
	// a uniform offset in [0, T], emulating unknown application headers.
	MethodRandomOffset
)

// String implements fmt.Stringer.
func (m TrainingMethod) String() string {
	switch m {
	case MethodWholeFile:
		return "H_F"
	case MethodPrefix:
		return "H_b"
	case MethodRandomOffset:
		return "H_b'"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Common errors.
var (
	ErrNoFiles      = errors.New("core: no training files")
	ErrBadWidths    = errors.New("core: invalid feature widths")
	ErrShortPayload = errors.New("core: payload shorter than the widest feature")
)

// DatasetConfig controls file-to-feature reduction.
type DatasetConfig struct {
	// Widths are the entropy feature widths (k values), e.g. PhiPrimeSVM.
	Widths []int
	// Method picks the training material per file.
	Method TrainingMethod
	// BufferSize is b for MethodPrefix and MethodRandomOffset.
	BufferSize int
	// HeaderThreshold is T for MethodRandomOffset.
	HeaderThreshold int
	// Estimator, when non-nil, replaces exact entropy calculation for
	// widths >= 2 ((δ,ε)-approximation training, paper §4.4.2).
	Estimator *entest.Estimator
	// Seed drives the random offsets of MethodRandomOffset.
	Seed int64
}

// validateWidths applies the feature-width rules shared by every path
// that accepts widths from outside — dataset configs and persisted
// classifiers alike: non-empty, every width positive, no duplicates.
func validateWidths(widths []int) error {
	if len(widths) == 0 {
		return fmt.Errorf("%w: empty", ErrBadWidths)
	}
	seen := make(map[int]bool, len(widths))
	for _, k := range widths {
		if k < 1 {
			return fmt.Errorf("%w: width %d", ErrBadWidths, k)
		}
		if seen[k] {
			return fmt.Errorf("%w: duplicate width %d", ErrBadWidths, k)
		}
		seen[k] = true
	}
	return nil
}

// widestOf returns the largest width in widths (0 for an empty set).
func widestOf(widths []int) int {
	w := 0
	for _, k := range widths {
		if k > w {
			w = k
		}
	}
	return w
}

func (c DatasetConfig) validate() error {
	if err := validateWidths(c.Widths); err != nil {
		return err
	}
	switch c.Method {
	case MethodWholeFile:
	case MethodPrefix, MethodRandomOffset:
		if c.BufferSize <= 0 {
			return fmt.Errorf("core: method %v needs a positive buffer size", c.Method)
		}
	default:
		return fmt.Errorf("core: unknown training method %d", int(c.Method))
	}
	return nil
}

// vectorOf computes the configured entropy vector for one byte window.
func (c DatasetConfig) vectorOf(data []byte) ([]float64, error) {
	if c.Estimator != nil {
		return c.Estimator.Vector(data, c.Widths)
	}
	return entropy.VectorAt(data, c.Widths)
}

// window selects the training bytes of one file per the configured method.
func (c DatasetConfig) window(data []byte, rng *rand.Rand) []byte {
	switch c.Method {
	case MethodPrefix:
		if len(data) > c.BufferSize {
			return data[:c.BufferSize]
		}
	case MethodRandomOffset:
		t := c.HeaderThreshold
		if t > len(data)-c.BufferSize {
			t = len(data) - c.BufferSize
		}
		if t > 0 {
			off := rng.Intn(t + 1)
			end := off + c.BufferSize
			if end > len(data) {
				end = len(data)
			}
			return data[off:end]
		}
		if len(data) > c.BufferSize {
			return data[:c.BufferSize]
		}
	}
	return data
}

// BuildDataset reduces corpus files to a labeled entropy-vector dataset.
// Files shorter than the widest feature are skipped; it is an error if
// every file is skipped.
func BuildDataset(files []corpus.File, cfg DatasetConfig) (*dataset.Dataset, error) {
	if len(files) == 0 {
		return nil, ErrNoFiles
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	maxWidth := widestOf(cfg.Widths)
	rng := rand.New(rand.NewSource(cfg.Seed))
	samples := make([]dataset.Sample, 0, len(files))
	for _, f := range files {
		window := cfg.window(f.Data, rng)
		if len(window) < maxWidth {
			continue
		}
		vec, err := cfg.vectorOf(window)
		if err != nil {
			return nil, fmt.Errorf("core: featurizing %s/%s: %w", f.Class, f.Kind, err)
		}
		samples = append(samples, dataset.Sample{Features: vec, Label: int(f.Class)})
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("%w: every file shorter than widest feature %d",
			ErrNoFiles, maxWidth)
	}
	return dataset.New(samples, corpus.NumClasses)
}

// TrainConfig assembles classifier training.
type TrainConfig struct {
	// Kind selects CART or SVM.
	Kind ModelKind
	// Dataset controls feature extraction from the corpus files.
	Dataset DatasetConfig
	// CART configures tree growth for KindCART.
	CART cart.Config
	// SVM configures SMO for KindSVM; the paper's model is
	// RBF(γ=50)/C=1000.
	SVM svm.Config
}

// Train builds a Classifier from labeled corpus files.
func Train(files []corpus.File, cfg TrainConfig) (*Classifier, error) {
	ds, err := BuildDataset(files, cfg.Dataset)
	if err != nil {
		return nil, err
	}
	return TrainOnDataset(ds, cfg)
}

// TrainOnDataset builds a Classifier from an already-featurized dataset
// whose columns correspond to cfg.Dataset.Widths.
func TrainOnDataset(ds *dataset.Dataset, cfg TrainConfig) (*Classifier, error) {
	if err := cfg.Dataset.validate(); err != nil {
		return nil, err
	}
	if ds.Width() != len(cfg.Dataset.Widths) {
		return nil, fmt.Errorf("core: dataset width %d does not match %d feature widths",
			ds.Width(), len(cfg.Dataset.Widths))
	}
	m := &model{
		kind:     cfg.Kind,
		widths:   append([]int{}, cfg.Dataset.Widths...),
		maxWidth: widestOf(cfg.Dataset.Widths),
	}
	switch cfg.Kind {
	case KindCART:
		tree, err := cart.Train(ds, cfg.CART)
		if err != nil {
			return nil, err
		}
		m.tree = tree
	case KindSVM:
		mdl, err := svm.Train(ds, cfg.SVM)
		if err != nil {
			return nil, err
		}
		m.svm = mdl
	default:
		return nil, fmt.Errorf("core: unknown model kind %d", int(cfg.Kind))
	}
	c := newClassifier(m)
	c.estimator = cfg.Dataset.Estimator
	return c, nil
}

// model is the swappable payload of a Classifier: the trained predictor
// plus the feature geometry it was trained with. Every field that must
// stay mutually consistent during a hot-swap lives here, so replacing the
// whole payload is one atomic pointer store.
type model struct {
	kind     ModelKind
	widths   []int
	maxWidth int // widest entry of widths, hoisted off the per-call path
	tree     *cart.Tree
	svm      *svm.Model
}

// Classifier is a trained Iustitia classification module. It satisfies the
// flow engine's Classifier interface, and supports atomic model hot-swap:
// Swap replaces the model payload under concurrent Classify calls without
// a drain. Each classify path loads the payload pointer exactly once, so
// an in-flight classification finishes entirely on the model it started
// with — widths and predictor never mix across a swap.
type Classifier struct {
	m atomic.Pointer[model]
	// estimator is a runtime feature-extraction choice, deliberately not
	// part of the swapped payload: it belongs to the deployment, not the
	// trained model, and survives hot-swaps.
	estimator *entest.Estimator
}

// newClassifier wraps a model payload in a Classifier.
func newClassifier(m *model) *Classifier {
	c := &Classifier{}
	c.m.Store(m)
	return c
}

// Kind returns the underlying model family.
func (c *Classifier) Kind() ModelKind { return c.m.Load().kind }

// Widths returns the entropy feature widths the classifier consumes.
func (c *Classifier) Widths() []int {
	m := c.m.Load()
	return append([]int{}, m.widths...)
}

// FeatureWidths is Widths under the name the flow engine's
// VectorClassifier interface uses.
func (c *Classifier) FeatureWidths() []int { return c.Widths() }

// Classes returns the number of output classes the model predicts over,
// or 0 if the model does not expose it. Hot-swap verification compares
// this against the live corpus before flipping the model in.
func (c *Classifier) Classes() int { return c.m.Load().classes() }

func (m *model) classes() int {
	switch m.kind {
	case KindCART:
		if m.tree != nil {
			return m.tree.Classes
		}
	case KindSVM:
		if m.svm != nil {
			return m.svm.Classes()
		}
	}
	return 0
}

// Swap atomically installs next's model payload as c's, returning a
// classifier that holds the previous payload so the caller can swap back
// (rollback). Safe under concurrent Classify calls: in-flight
// classifications complete on whichever model they loaded. The estimator
// is not swapped — it is a property of the deployment, not the model.
func (c *Classifier) Swap(next *Classifier) (prev *Classifier) {
	return newClassifier(c.m.Swap(next.m.Load()))
}

// UseEstimator switches feature extraction to the (δ,ε)-approximation
// algorithm for widths >= 2. Passing nil reverts to exact calculation.
func (c *Classifier) UseEstimator(e *entest.Estimator) { c.estimator = e }

// Features computes the classifier's entropy vector for a payload buffer.
func (c *Classifier) Features(payload []byte) ([]float64, error) {
	return c.appendFeatures(nil, c.m.Load(), payload)
}

// appendFeatures appends m's entropy vector of payload to dst (the
// estimator, when set, returns its own slice instead).
func (c *Classifier) appendFeatures(dst []float64, m *model, payload []byte) ([]float64, error) {
	if len(payload) < m.maxWidth {
		return nil, fmt.Errorf("%w: %d < %d", ErrShortPayload, len(payload), m.maxWidth)
	}
	if c.estimator != nil {
		return c.estimator.Vector(payload, m.widths)
	}
	return entropy.AppendVector(dst, payload, m.widths)
}

// vecPool recycles the entropy vector of a Classify call, so the exact
// path allocates nothing per flow. A stack array would not do: the SVM
// hands the vector to its Kernel interface, which moves it to the heap.
// Sixteen slots hold every paper width set; a longer one falls back to
// append's own growth.
var vecPool = sync.Pool{New: func() any { return new([16]float64) }}

// Classify labels a payload buffer with its content nature.
func (c *Classifier) Classify(payload []byte) (corpus.Class, error) {
	m := c.m.Load()
	buf := vecPool.Get().(*[16]float64)
	defer vecPool.Put(buf)
	vec, err := c.appendFeatures(buf[:0], m, payload)
	if err != nil {
		return 0, err
	}
	return m.classifyVector(vec)
}

// ClassifyVector labels an already-computed entropy vector.
func (c *Classifier) ClassifyVector(vec []float64) (corpus.Class, error) {
	return c.m.Load().classifyVector(vec)
}

func (m *model) classifyVector(vec []float64) (corpus.Class, error) {
	var (
		label int
		err   error
	)
	switch m.kind {
	case KindCART:
		label, err = m.tree.Predict(vec)
	case KindSVM:
		label, err = m.svm.Predict(vec)
	default:
		return 0, fmt.Errorf("core: classifier has unknown kind %d", int(m.kind))
	}
	if err != nil {
		return 0, err
	}
	return corpus.Class(label), nil
}

// Evaluate classifies every sample of a featurized dataset.
func (c *Classifier) Evaluate(ds *dataset.Dataset) (*dataset.Confusion, error) {
	actual := make([]int, ds.Len())
	predicted := make([]int, ds.Len())
	for i, s := range ds.Samples {
		p, err := c.ClassifyVector(s.Features)
		if err != nil {
			return nil, err
		}
		actual[i] = s.Label
		predicted[i] = int(p)
	}
	return dataset.NewConfusion(corpus.NumClasses, actual, predicted)
}

// classifierJSON is the persisted form of a Classifier. The estimator is
// deliberately not persisted: it is a runtime choice.
type classifierJSON struct {
	Kind   ModelKind       `json:"kind"`
	Widths []int           `json:"widths"`
	Tree   *cart.Tree      `json:"tree,omitempty"`
	SVM    json.RawMessage `json:"svm,omitempty"`
}

// Save writes the classifier as JSON.
func (c *Classifier) Save(w io.Writer) error {
	m := c.m.Load()
	out := classifierJSON{Kind: m.kind, Widths: m.widths, Tree: m.tree}
	if m.svm != nil {
		blob, err := json.Marshal(m.svm)
		if err != nil {
			return fmt.Errorf("core: marshal svm: %w", err)
		}
		out.SVM = blob
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Load reads a classifier previously written by Save.
func Load(r io.Reader) (*Classifier, error) {
	var in classifierJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decode classifier: %w", err)
	}
	// Persisted widths get the same scrutiny as a training config: a saved
	// model with zero, negative, or duplicated widths would otherwise
	// misextract features on every classify. The slice is defensively
	// copied so the classifier never aliases decoder-owned memory.
	if err := validateWidths(in.Widths); err != nil {
		return nil, err
	}
	m := &model{
		kind:     in.Kind,
		widths:   append([]int{}, in.Widths...),
		maxWidth: widestOf(in.Widths),
	}
	switch in.Kind {
	case KindCART:
		if in.Tree == nil {
			return nil, errors.New("core: cart classifier missing tree")
		}
		m.tree = in.Tree
	case KindSVM:
		if len(in.SVM) == 0 {
			return nil, errors.New("core: svm classifier missing model")
		}
		var mdl svm.Model
		if err := json.Unmarshal(in.SVM, &mdl); err != nil {
			return nil, fmt.Errorf("core: decode svm: %w", err)
		}
		m.svm = &mdl
	default:
		return nil, fmt.Errorf("core: unknown model kind %d", int(in.Kind))
	}
	return newClassifier(m), nil
}
