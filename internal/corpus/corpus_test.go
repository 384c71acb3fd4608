package corpus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"iustitia/internal/entropy"
	"iustitia/internal/stats"
)

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		Text: "text", Binary: "binary", Encrypted: "encrypted", Class(9): "class(9)",
	}
	for class, want := range cases {
		if got := class.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(class), got, want)
		}
	}
	if len(ClassNames()) != NumClasses {
		t.Errorf("ClassNames length = %d, want %d", len(ClassNames()), NumClasses)
	}
}

func TestFileSizesExact(t *testing.T) {
	g := NewGenerator(1)
	for class := Text; class <= Encrypted; class++ {
		for _, size := range []int{64, 1024, 4096} {
			f, err := g.File(class, size)
			if err != nil {
				t.Fatal(err)
			}
			if len(f.Data) != size {
				t.Errorf("%v size %d: got %d bytes", class, size, len(f.Data))
			}
			if f.Class != class {
				t.Errorf("File class = %v, want %v", f.Class, class)
			}
		}
	}
}

func TestFileUnknownClass(t *testing.T) {
	g := NewGenerator(1)
	if _, err := g.File(Class(42), 100); err == nil {
		t.Error("unknown class: want error")
	}
}

func TestDeterminism(t *testing.T) {
	a := NewGenerator(7)
	b := NewGenerator(7)
	fa, err := a.File(Binary, 2048)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.File(Binary, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if string(fa.Data) != string(fb.Data) {
		t.Error("same seed produced different files")
	}
	if fa.Kind != fb.Kind {
		t.Errorf("kinds differ: %q vs %q", fa.Kind, fb.Kind)
	}
}

func TestSeedsDiffer(t *testing.T) {
	fa, err := NewGenerator(1).File(Encrypted, 512)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := NewGenerator(2).File(Encrypted, 512)
	if err != nil {
		t.Fatal(err)
	}
	if string(fa.Data) == string(fb.Data) {
		t.Error("different seeds produced identical ciphertext")
	}
}

// TestEntropyBands is the substitution-fidelity check (DESIGN.md §4): the
// synthetic classes must occupy the paper's ordered, partially overlapping
// entropy bands.
func TestEntropyBands(t *testing.T) {
	g := NewGenerator(11)
	const n = 30
	const size = 4096
	means := make([]float64, NumClasses)
	for class := Text; class <= Encrypted; class++ {
		var hs []float64
		for i := 0; i < n; i++ {
			f, err := g.File(class, size)
			if err != nil {
				t.Fatal(err)
			}
			h, err := entropy.H(f.Data, 1)
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		means[class] = stats.Mean(hs)
	}
	if !(means[Text] < means[Binary] && means[Binary] < means[Encrypted]) {
		t.Errorf("mean entropy bands out of order: text=%.3f binary=%.3f encrypted=%.3f",
			means[Text], means[Binary], means[Encrypted])
	}
	if means[Text] > 0.75 {
		t.Errorf("text mean entropy %.3f too high (want natural-language band < 0.75)", means[Text])
	}
	if means[Encrypted] < 0.9 {
		t.Errorf("encrypted mean entropy %.3f too low (want near-uniform band > 0.9)", means[Encrypted])
	}
}

func TestTextIsPrintableASCII(t *testing.T) {
	g := NewGenerator(13)
	f := g.Text(2048)
	nonPrintable := 0
	for _, b := range f.Data {
		if (b < 0x20 || b > 0x7e) && b != '\n' && b != '\r' && b != '\t' {
			nonPrintable++
		}
	}
	if frac := float64(nonPrintable) / float64(len(f.Data)); frac > 0.01 {
		t.Errorf("text file is %.1f%% non-printable", frac*100)
	}
}

func TestPool(t *testing.T) {
	g := NewGenerator(17)
	files, err := g.Pool(5, 512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 5*NumClasses {
		t.Fatalf("pool size = %d, want %d", len(files), 5*NumClasses)
	}
	counts := make(map[Class]int)
	for _, f := range files {
		counts[f.Class]++
		if len(f.Data) < 512 || len(f.Data) > 1024 {
			t.Errorf("file size %d outside [512, 1024]", len(f.Data))
		}
	}
	for class := Text; class <= Encrypted; class++ {
		if counts[class] != 5 {
			t.Errorf("class %v count = %d, want 5", class, counts[class])
		}
	}
}

func TestPoolValidation(t *testing.T) {
	g := NewGenerator(19)
	if _, err := g.Pool(0, 10, 20); err == nil {
		t.Error("perClass=0: want error")
	}
	if _, err := g.Pool(1, 0, 20); err == nil {
		t.Error("minSize=0: want error")
	}
	if _, err := g.Pool(1, 30, 20); err == nil {
		t.Error("max<min: want error")
	}
}

func TestBinarySubtypesSpreadEntropy(t *testing.T) {
	// Binary files must show a wide entropy spread: some near text (doc),
	// some near encrypted (zip) — the overlap driving the paper's
	// misclassification pattern.
	g := NewGenerator(23)
	var hs []float64
	for i := 0; i < 40; i++ {
		f := g.Binary(4096)
		h, err := entropy.H(f.Data, 1)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	summary, err := stats.Summarize(hs)
	if err != nil {
		t.Fatal(err)
	}
	if spread := summary.Max - summary.Min; spread < 0.15 {
		t.Errorf("binary entropy spread = %.3f, want >= 0.15 (min=%.3f max=%.3f)",
			spread, summary.Min, summary.Max)
	}
}

// TestPoolGolden pins the synthesized pools byte for byte: every
// experiment and the benchmark draw their files from Pool, so a change to
// how files are built (such as reusing the flate compressor) must leave
// these digests of class, kind, length and bytes exactly as recorded.
func TestPoolGolden(t *testing.T) {
	golden := map[int64]string{
		1:  "75556a0fbd10bf52d436f3020216ff648874c99873ce77e7fa730c5aef4584f1",
		11: "3db00357bb3b8e1fcaf10a0c9fa4c9e6419758fc83c200b54137514e3d7eb1fa",
		29: "74ca89982511a4445a8b6b0903ee5604bcbf873fce3382b233822994d2742c9d",
		43: "8b4acf41f01341607356261c6afd8970c8f234a2a9531d9fc5eab80cdbfa94da",
	}
	for _, seed := range []int64{1, 11, 29, 43} {
		files, err := NewGenerator(seed).Pool(60, 512, 40000)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var word [8]byte
		for _, f := range files {
			binary.LittleEndian.PutUint64(word[:], uint64(f.Class))
			h.Write(word[:])
			h.Write([]byte(f.Kind))
			h.Write([]byte{0})
			binary.LittleEndian.PutUint64(word[:], uint64(len(f.Data)))
			h.Write(word[:])
			h.Write(f.Data)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != golden[seed] {
			t.Errorf("seed %d: pool digest %s, want %s", seed, got, golden[seed])
		}
	}
}
