package core

import (
	"bytes"
	"errors"
	"testing"

	"iustitia/internal/corpus"
	"iustitia/internal/entest"
	"iustitia/internal/ml/svm"
)

func pool(t *testing.T, perClass, minSize, maxSize int, seed int64) []corpus.File {
	t.Helper()
	files, err := corpus.NewGenerator(seed).Pool(perClass, minSize, maxSize)
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestModelKindString(t *testing.T) {
	if KindCART.String() != "cart" || KindSVM.String() != "svm" {
		t.Error("model kind names wrong")
	}
	if ModelKind(0).String() != "kind(0)" {
		t.Error("unknown kind string wrong")
	}
}

func TestTrainingMethodString(t *testing.T) {
	for method, want := range map[TrainingMethod]string{
		MethodWholeFile: "H_F", MethodPrefix: "H_b", MethodRandomOffset: "H_b'",
	} {
		if got := method.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(method), got, want)
		}
	}
}

func TestBuildDatasetValidation(t *testing.T) {
	files := pool(t, 2, 256, 512, 1)
	if _, err := BuildDataset(nil, DatasetConfig{Widths: []int{1}, Method: MethodWholeFile}); !errors.Is(err, ErrNoFiles) {
		t.Errorf("no files: err = %v", err)
	}
	if _, err := BuildDataset(files, DatasetConfig{Method: MethodWholeFile}); !errors.Is(err, ErrBadWidths) {
		t.Errorf("no widths: err = %v", err)
	}
	if _, err := BuildDataset(files, DatasetConfig{Widths: []int{0}, Method: MethodWholeFile}); !errors.Is(err, ErrBadWidths) {
		t.Errorf("width 0: err = %v", err)
	}
	if _, err := BuildDataset(files, DatasetConfig{Widths: []int{1}, Method: MethodPrefix}); err == nil {
		t.Error("prefix method without buffer size: want error")
	}
	if _, err := BuildDataset(files, DatasetConfig{Widths: []int{1}}); err == nil {
		t.Error("missing method: want error")
	}
}

func TestBuildDatasetShape(t *testing.T) {
	files := pool(t, 10, 1024, 2048, 2)
	ds, err := BuildDataset(files, DatasetConfig{
		Widths: PhiPrimeSVM, Method: MethodPrefix, BufferSize: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != len(files) {
		t.Errorf("dataset len = %d, want %d", ds.Len(), len(files))
	}
	if ds.Width() != len(PhiPrimeSVM) {
		t.Errorf("dataset width = %d, want %d", ds.Width(), len(PhiPrimeSVM))
	}
	for _, s := range ds.Samples {
		for i, h := range s.Features {
			if h < 0 || h > 1 {
				t.Fatalf("feature %d = %v outside [0,1]", i, h)
			}
		}
	}
}

func TestBuildDatasetSkipsShortFiles(t *testing.T) {
	files := []corpus.File{
		{Class: corpus.Text, Data: []byte("ab")},                 // shorter than width 3
		{Class: corpus.Text, Data: []byte("a much longer file")}, // kept
	}
	ds, err := BuildDataset(files, DatasetConfig{Widths: []int{3}, Method: MethodWholeFile})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 1 {
		t.Errorf("dataset len = %d, want 1", ds.Len())
	}
	// All files too short is an error.
	if _, err := BuildDataset(files[:1], DatasetConfig{Widths: []int{3}, Method: MethodWholeFile}); !errors.Is(err, ErrNoFiles) {
		t.Errorf("all short: err = %v", err)
	}
}

func TestBuildDatasetRandomOffsetDeterminism(t *testing.T) {
	files := pool(t, 5, 2048, 4096, 3)
	cfg := DatasetConfig{
		Widths: []int{1, 2}, Method: MethodRandomOffset,
		BufferSize: 512, HeaderThreshold: 1000, Seed: 99,
	}
	a, err := BuildDataset(files, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildDataset(files, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		for j := range a.Samples[i].Features {
			if a.Samples[i].Features[j] != b.Samples[i].Features[j] {
				t.Fatal("random-offset featurization not reproducible for equal seeds")
			}
		}
	}
}

func trainSmall(t *testing.T, kind ModelKind) *Classifier {
	t.Helper()
	files := pool(t, 40, 1024, 2048, 4)
	cfg := TrainConfig{
		Kind: kind,
		Dataset: DatasetConfig{
			Widths: PhiPrimeSVM, Method: MethodPrefix, BufferSize: 512,
		},
		SVM: svm.Config{Kernel: svm.RBF{Gamma: 50}, C: 1000, Seed: 7},
	}
	c, err := Train(files, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTrainAndClassifyBothKinds(t *testing.T) {
	for _, kind := range []ModelKind{KindCART, KindSVM} {
		c := trainSmall(t, kind)
		if c.Kind() != kind {
			t.Errorf("Kind = %v, want %v", c.Kind(), kind)
		}

		// Held-out accuracy must comfortably beat chance (1/3) on the
		// synthetic bands.
		test := pool(t, 25, 1024, 2048, 5)
		testDS, err := BuildDataset(test, DatasetConfig{
			Widths: PhiPrimeSVM, Method: MethodPrefix, BufferSize: 512,
		})
		if err != nil {
			t.Fatal(err)
		}
		conf, err := c.Evaluate(testDS)
		if err != nil {
			t.Fatal(err)
		}
		if acc := conf.Accuracy(); acc < 0.6 {
			t.Errorf("%v held-out accuracy = %v, want >= 0.6", kind, acc)
		}
	}
}

// TestClassifyAllocRegression is the alloc budget gate for buffered
// classification: with the entropy state and the vector both pooled, a
// warm Classify allocates nothing, whichever model consumes the vector.
func TestClassifyAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	payload := pool(t, 1, 1024, 1024, 6)[0].Data
	for _, kind := range []ModelKind{KindCART, KindSVM} {
		c := trainSmall(t, kind)
		classify := func() {
			if _, err := c.Classify(payload); err != nil {
				t.Fatal(err)
			}
		}
		classify() // warm the pools
		if allocs := testing.AllocsPerRun(50, classify); allocs != 0 {
			t.Errorf("%v Classify allocs/op = %v, want 0", kind, allocs)
		}
	}
}

func TestTrainUnknownKind(t *testing.T) {
	files := pool(t, 3, 512, 512, 6)
	_, err := Train(files, TrainConfig{
		Dataset: DatasetConfig{Widths: []int{1}, Method: MethodWholeFile},
	})
	if err == nil {
		t.Error("unknown kind: want error")
	}
}

func TestClassifyShortPayload(t *testing.T) {
	c := trainSmall(t, KindCART)
	if _, err := c.Classify([]byte("abc")); !errors.Is(err, ErrShortPayload) {
		t.Errorf("short payload: err = %v", err)
	}
}

func TestClassifierWidthsCopied(t *testing.T) {
	c := trainSmall(t, KindCART)
	w := c.Widths()
	w[0] = 99
	if c.Widths()[0] == 99 {
		t.Error("Widths exposes internal storage")
	}
}

func TestClassifierWithEstimator(t *testing.T) {
	c := trainSmall(t, KindCART)
	est, err := entest.New(0.25, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.UseEstimator(est)
	files := pool(t, 5, 1024, 1024, 7)
	agreements := 0
	for _, f := range files {
		label, err := c.Classify(f.Data)
		if err != nil {
			t.Fatal(err)
		}
		if label == f.Class {
			agreements++
		}
	}
	// Estimation adds noise but must stay usable.
	if agreements < len(files)/3 {
		t.Errorf("estimated classification correct on %d/%d files", agreements, len(files))
	}
	c.UseEstimator(nil) // revert must not break exact classification
	if _, err := c.Classify(files[0].Data); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, kind := range []ModelKind{KindCART, KindSVM} {
		c := trainSmall(t, kind)
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		files := pool(t, 5, 1024, 1024, 8)
		for _, f := range files {
			want, err := c.Classify(f.Data[:512])
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.Classify(f.Data[:512])
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v: round-trip classification mismatch", kind)
			}
		}
	}
}

func TestLoadInvalid(t *testing.T) {
	cases := []string{
		``,
		`{"kind":1,"widths":[]}`,
		`{"kind":1,"widths":[1]}`,            // cart without tree
		`{"kind":2,"widths":[1]}`,            // svm without model
		`{"kind":9,"widths":[1]}`,            // unknown kind
		`{"kind":2,"widths":[1],"svm":"{}"}`, // malformed svm payload
	}
	for _, blob := range cases {
		if _, err := Load(bytes.NewReader([]byte(blob))); err == nil {
			t.Errorf("Load(%q): want error", blob)
		}
	}
}

func TestLoadRejectsBadWidths(t *testing.T) {
	// The load path must apply the same width rules as training configs:
	// a persisted model with non-positive or duplicated widths would
	// misextract features on every classify.
	cases := []string{
		`{"kind":1,"widths":[0]}`,
		`{"kind":1,"widths":[-3]}`,
		`{"kind":1,"widths":[1,3,3]}`,
		`{"kind":2,"widths":[2,0,5]}`,
	}
	for _, blob := range cases {
		_, err := Load(bytes.NewReader([]byte(blob)))
		if !errors.Is(err, ErrBadWidths) {
			t.Errorf("Load(%q): err = %v, want ErrBadWidths", blob, err)
		}
	}
}

func TestDatasetConfigRejectsDuplicateWidths(t *testing.T) {
	files := pool(t, 3, 512, 512, 4)
	_, err := BuildDataset(files, DatasetConfig{
		Widths: []int{1, 2, 2}, Method: MethodWholeFile,
	})
	if !errors.Is(err, ErrBadWidths) {
		t.Errorf("BuildDataset(duplicate widths): err = %v, want ErrBadWidths", err)
	}
}

func TestFeaturesUsesHoistedMaxWidth(t *testing.T) {
	c := trainSmall(t, KindCART)
	widest := widestOf(c.Widths())
	short := make([]byte, widest-1)
	if _, err := c.Features(short); !errors.Is(err, ErrShortPayload) {
		t.Errorf("Features(short): err = %v, want ErrShortPayload", err)
	}
	long := make([]byte, widest)
	if _, err := c.Features(long); err != nil {
		t.Errorf("Features(exact widest): %v", err)
	}
}
