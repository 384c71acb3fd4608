package main

import (
	"testing"
	"time"
)

// streamDigest plays the first n packets of a prepared workload and folds
// their wire encodings, in order, into one hash; it also folds every
// descriptor's classifier-input hash.
func streamDigest(t *testing.T, name string, seed int64, n int) (packets, flows uint64) {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	e, err := prepare(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	var buf []byte
	packets = 14695981039346656037
	for i := 0; i < n; i++ {
		if _, ok := e.gen.next(&p); !ok {
			t.Fatalf("generator ran dry after %d packets", i)
		}
		if buf, err = appendWire(buf[:0], &p); err != nil {
			t.Fatal(err)
		}
		packets = packets*1099511628211 ^ hash64(buf)
	}
	for i := range e.descs {
		flows = flows*1099511628211 ^ e.descs[i].hash
	}
	return packets, flows
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, name := range []string{"mice", "mix_routed", "deepbuf_stream"} {
		p1, f1 := streamDigest(t, name, 7, 6000)
		p2, f2 := streamDigest(t, name, 7, 6000)
		if p1 != p2 || f1 != f2 {
			t.Errorf("%s: same seed gave different streams: packets %x vs %x, flow hashes %x vs %x", name, p1, p2, f1, f2)
		}
		p3, f3 := streamDigest(t, name, 8, 6000)
		if p1 == p3 || f1 == f3 {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

func TestTuplesAreDistinctAcrossLaps(t *testing.T) {
	seen := map[FiveTuple]uint64{}
	for seq := uint64(0); seq < 300000; seq++ {
		tup := tupleFor(11, seq, TCP)
		if prev, dup := seen[tup]; dup {
			t.Fatalf("flows %d and %d share tuple %v", prev, seq, tup)
		}
		seen[tup] = seq
	}
}

// Every flow is played to its end, laps reuse descriptors under fresh
// tuples, and draining stops new flows without cutting old ones short.
func TestGeneratorPlaysWholeFlows(t *testing.T) {
	w, _ := workloadByName("mice")
	e, err := prepare(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	perFlow := map[uint64]int{}
	var p Packet
	for i := 0; i < 3*e.lapPackets; i++ {
		meta, ok := e.gen.next(&p)
		if !ok {
			t.Fatal("generator ran dry before draining")
		}
		if want := tupleFor(3, meta.flowSeq, e.descs[meta.desc].proto); p.Tuple != want {
			t.Fatalf("flow %d: tuple %v, want %v", meta.flowSeq, p.Tuple, want)
		}
		if want := time.Duration(meta.pktIdx) * e.tick(); p.Time != want {
			t.Fatalf("packet %d stamped %v, want %v", meta.pktIdx, p.Time, want)
		}
		perFlow[meta.flowSeq]++
	}
	e.gen.drain()
	for {
		meta, ok := e.gen.next(&p)
		if !ok {
			break
		}
		perFlow[meta.flowSeq]++
	}
	if got := uint64(len(perFlow)); got != e.gen.flows() {
		t.Fatalf("saw %d flows, generator opened %d", got, e.gen.flows())
	}
	if e.gen.flows() < 2*uint64(len(e.descs)) {
		t.Fatalf("only %d flows opened over three laps of %d", e.gen.flows(), len(e.descs))
	}
	for seq, n := range perFlow {
		if want := e.descs[seq%uint64(len(e.descs))].packets(); n != want {
			t.Fatalf("flow %d played %d of %d packets", seq, n, want)
		}
	}
}

// A packet that ends exactly on an HTTP header's blank line makes the
// engine wait for a terminator it has already consumed; the mixed-size
// cutter must never produce one.
func TestMixedCutsAvoidHeaderBoundary(t *testing.T) {
	w, _ := workloadByName("mix_routed")
	for seed := int64(1); seed <= 20; seed++ {
		pool, err := newCorpusPool(seed, (w.FlowsPerLap+2)/3, 512)
		if err != nil {
			t.Fatal(err)
		}
		// Short files make the header a large share of the flow, so the
		// dangerous cut is likely without the guard.
		small := *w
		small.FileSize = 512
		for i, d := range buildDescs(&small, pool[:w.FlowsPerLap], seed) {
			if !d.hasHeader {
				continue
			}
			hdrLen := len(d.stream) - len(pool[i].Data)
			for _, c := range d.cuts {
				if int(c) == hdrLen {
					t.Fatalf("seed %d flow %d: packet ends on the header boundary %d", seed, i, hdrLen)
				}
			}
		}
	}
}
