package main

import (
	"fmt"
	"math/rand"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measuring time the
// frozen packet counts below were sized for on the 2-core reference box.
// Another -seconds value scales every count linearly.
const defaultSeconds = 14

// workload is one named traffic mix plus the system configuration it is
// served with. Names are fixed: later issues cite them.
type workload struct {
	Name string
	Why  string
	Spec sutSpec
	// Widths is the feature set the workload's CART model is trained on.
	Widths []int

	// FlowsPerLap is the number of distinct flows (and pool files) before
	// content repeats under fresh 5-tuples.
	FlowsPerLap int
	// FileSize is the size of each pool file.
	FileSize int
	// Concurrency is how many flows are interleaved at any moment.
	Concurrency int
	// shape fills one descriptor's transport, close, header and
	// packetisation choices.
	shape func(rng *rand.Rand, d *flowDesc)
	// mixedSizes cuts each flow into bimodal packet sizes instead of
	// shape's fixed pktSize; flows then carry minFlowBytes..len(stream).
	mixedSizes   bool
	minFlowBytes int

	// Frozen load, sized at defaultSeconds on the 2-core reference box:
	// SatPackets is the saturate slices' packet count (about 9 s in all),
	// PacedTickNs the open-loop inter-packet interval and PacedPackets how
	// many are sent at it (about 3 s). The frozen rate, 1e9/PacedTickNs,
	// is about 40 % of the saturate rate measured when the benchmark was
	// defined, rounded down: the issue asked for 50 %, but this box slows
	// by a fifth for minutes at a time, and at 50 % a slow minute tipped
	// elephant into a backlog seconds long. The tick is also the virtual
	// time step between consecutive packets in every phase.
	SatPackets   int
	PacedTickNs  int64
	PacedPackets int
}

// pacedRate is the frozen open-loop rate in packets per second.
func (w *workload) pacedRate() float64 { return 1e9 / float64(w.PacedTickNs) }

func fixedShape(pktSize, nData int) func(*rand.Rand, *flowDesc) {
	return func(_ *rand.Rand, d *flowDesc) { d.pktSize, d.nData = pktSize, nData }
}

// closes draws a TCP flow's ending: finFrac closed by FIN, rstFrac by RST.
func closes(rng *rand.Rand, d *flowDesc, finFrac, rstFrac float64) {
	if d.proto != TCP {
		return
	}
	switch r := rng.Float64(); {
	case r < finFrac:
		d.closeBy = FlagFIN
	case r < finFrac+rstFrac:
		d.closeBy = FlagRST
	}
}

var workloads = []*workload{
	{
		Name: "elephant",
		Why: "512 flows x 400 x 1400 B, b=32: >99% CDB hits, so wire codec, frame/CRC/queue and " +
			"flow-ID + CDB lookup do the work; classifier idles",
		Spec:        sutSpec{BufferSize: 32},
		Widths:      widthsPhiPrimeCART,
		FlowsPerLap: 512, FileSize: 4096, Concurrency: 512,
		shape: func(_ *rand.Rand, d *flowDesc) {
			d.pktSize, d.nData, d.cycle = 1400, 400, true
		},
		SatPackets: 3_400_000, PacedTickNs: 6667, PacedPackets: 450_000, // 150k/s
	},
	{
		Name: "mice",
		Why: "3 x 96 B per flow, UDP mix, FIN/RST, 30% stripped headers, b=32: every third packet " +
			"creates and retires flow state; writes the CDB elephant only reads",
		Spec:        sutSpec{BufferSize: 32, StripKnownHeaders: true},
		Widths:      widthsPhiPrimeCART,
		FlowsPerLap: 1200, FileSize: 512, Concurrency: 256,
		shape: func(rng *rand.Rand, d *flowDesc) {
			d.pktSize, d.nData = 96, 3
			if rng.Float64() < 0.20 {
				d.proto = UDP
			}
			closes(rng, d, 0.40, 0.10)
			d.hasHeader = rng.Float64() < 0.30
		},
		SatPackets: 2_900_000, PacedTickNs: 8000, PacedPackets: 375_000, // 125k/s
	},
	{
		Name: "deepbuf",
		Why: "8 x 512 B per flow, b=1024, CART on ten widths, buffered: one 1 KiB entropy scan per flow " +
			"dwarfs transport and table cost; ingest changes must not show",
		Spec:        sutSpec{BufferSize: 1024},
		Widths:      widthsAll,
		FlowsPerLap: 768, FileSize: 4096, Concurrency: 256,
		shape:      fixedShape(512, 8),
		SatPackets: 630_000, PacedTickNs: 40000, PacedPackets: 75_000, // 25k/s
	},
	{
		Name: "deepbuf_stream",
		Why: "deepbuf's packets in stream mode (cc sketch, eps=delta=0.25): a sketch write per byte " +
			"instead of buffer-then-scan; the memory-for-speed trade on both axes",
		Spec:        sutSpec{BufferSize: 1024, Stream: true},
		Widths:      widthsAll,
		FlowsPerLap: 768, FileSize: 4096, Concurrency: 256,
		shape:      fixedShape(512, 8),
		SatPackets: 480_000, PacedTickNs: 50000, PacedPackets: 60_000, // 20k/s
	},
	{
		Name: "mix_routed",
		Why: "UMASS-shaped mix, b=32, through cluster.Router (requeue, journal 4096) to two serve nodes: " +
			"the only workload running ring, journal and second hop",
		Spec:        sutSpec{BufferSize: 32, StripKnownHeaders: true, Routed: true},
		Widths:      widthsPhiPrimeCART,
		FlowsPerLap: 600, FileSize: 8192, Concurrency: 128,
		shape: func(rng *rand.Rand, d *flowDesc) {
			// The fractions of packet.DefaultTraceConfig.
			if rng.Float64() < 0.2 {
				d.proto = UDP
			}
			closes(rng, d, 0.36, 0.10)
			d.hasHeader = rng.Float64() < 0.3
		},
		mixedSizes: true, minFlowBytes: 256,
		SatPackets: 620_000, PacedTickNs: 40000, PacedPackets: 75_000, // 25k/s
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
