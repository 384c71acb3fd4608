package flow

import (
	"bytes"
	"flag"
	"os"
	"testing"
	"time"

	"iustitia/internal/entest"
	"iustitia/internal/packet"
	"iustitia/internal/persist"
)

// Golden wire-compatibility test for persist.KindMigration, the payload
// behind flow-table migration and the pending section of a node
// checkpoint. The fixture lives beside the other snapshot goldens and
// holds one buffered and one sketched pending flow plus one CDB record; it
// was written by the encoder of the commit before the per-flow accumulator
// existed, so passing here proves that refactor left the wire bytes alone.
//
// Regenerate after an INTENTIONAL format change with:
//
//	go test ./internal/flow -run TestGoldenMigration -update

var updateGolden = flag.Bool("update", false, "rewrite the migration golden fixture")

const (
	goldenMigrationPath = "../persist/testdata/migration_v1.snap"
	goldenB             = 64
)

func goldenTuple(i int) packet.FiveTuple { return tuple(uint16(9000+i), packet.TCP) }

// goldenPayload is flow i's deterministic byte stream.
func goldenPayload(i, n int) string {
	p := make([]byte, n)
	for j := range p {
		p[j] = byte((j*(2*i+3) + 11*i) % 251)
	}
	return string(p)
}

func goldenEngines(t testing.TB) (buffered, stream *Engine) {
	t.Helper()
	buffered, err := NewEngine(EngineConfig{BufferSize: goldenB, Classifier: newVecClassifier()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := streamEngineConfig(newVecClassifier(), goldenB)
	cfg.Stream.Sketch = entest.SketchCC
	stream, err = NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return buffered, stream
}

// goldenMigration builds the fixture's content: flow 0 classified (a CDB
// record) and flow 1 forty bytes into its buffer on a buffered engine,
// flow 2 forty bytes into its sketch on a stream engine.
func goldenMigration(t testing.TB) flowExport {
	t.Helper()
	buffered, stream := goldenEngines(t)
	feed := func(e *Engine, i, n int) {
		if _, err := e.Process(dataPacket(goldenTuple(i), time.Duration(i+1)*time.Second, goldenPayload(i, n))); err != nil {
			t.Fatal(err)
		}
	}
	feed(buffered, 0, goldenB)
	feed(buffered, 1, 40)
	feed(stream, 2, 40)
	all := func(ID) bool { return true }
	fx, sx := buffered.takeFlows(all), stream.takeFlows(all)
	fx.pendings = append(fx.pendings, sx.pendings...)
	sortPendings(fx.pendings)
	return fx
}

func TestGoldenMigrationBytes(t *testing.T) {
	frame := persist.Encode(persist.KindMigration, encodeFlowExport(goldenMigration(t)))
	if *updateGolden {
		if err := os.WriteFile(goldenMigrationPath, frame, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenMigrationPath, len(frame))
		return
	}
	fixture, err := os.ReadFile(goldenMigrationPath)
	if err != nil {
		t.Fatalf("fixture missing (run with -update to generate): %v", err)
	}
	if !bytes.Equal(fixture, frame) {
		t.Error("regenerated migration frame differs from fixture — wire format changed without a version bump")
	}
}

func TestGoldenMigrationDecodes(t *testing.T) {
	if *updateGolden {
		t.Skip("fixture being rewritten")
	}
	payload, err := persist.LoadFile(goldenMigrationPath, persist.KindMigration)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := decodeFlowExport(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeFlowExport(fx), payload) {
		t.Fatal("decode → re-encode is not byte-identical")
	}
	if len(fx.pendings) != 2 || len(fx.records) != 1 {
		t.Fatalf("fixture holds %d pending flows and %d records, want 2 and 1", len(fx.pendings), len(fx.records))
	}

	// Each engine resumes its own mode's flow and reaches the verdict an
	// uninterrupted engine of that mode reaches.
	record, err := newVecClassifier().Classify([]byte(goldenPayload(0, goldenB)))
	if err != nil {
		t.Fatal(err)
	}
	buffered, stream := goldenEngines(t)
	refBuffered, refStream := goldenEngines(t)
	for _, c := range []struct {
		name    string
		i       int
		dst, un *Engine
	}{
		{"buffered", 1, buffered, refBuffered},
		{"sketched", 2, stream, refStream},
	} {
		if n := c.dst.installFlows(fx, true); n != 3 {
			t.Fatalf("%s engine installed %d of the fixture's 3 entries", c.name, n)
		}
		full := goldenPayload(c.i, goldenB)
		got, err := c.dst.Process(dataPacket(goldenTuple(c.i), time.Minute, full[40:]))
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.un.Process(dataPacket(goldenTuple(c.i), time.Minute, full))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Classified || got != want {
			t.Errorf("%s flow resumed to %+v, uninterrupted engine says %+v", c.name, got, want)
		}
		if label, ok := c.dst.RecordedLabel(goldenTuple(0)); !ok || label != record {
			t.Errorf("%s engine reads (%v, %v) for the migrated CDB record, want %v", c.name, label, ok, record)
		}
	}
}
