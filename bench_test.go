package iustitia

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index and EXPERIMENTS.md
// for paper-vs-measured numbers). Each BenchmarkTableN/BenchmarkFigN runs
// the corresponding experiment from internal/experiments and reports its
// headline metric; run with
//
//	go test -bench=. -benchmem
//
// and use cmd/iustitia-bench to print the full result tables. Micro- and
// ablation benchmarks for the design choices called out in DESIGN.md §5
// follow the experiment benchmarks.

import (
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"iustitia/internal/core"
	"iustitia/internal/corpus"
	"iustitia/internal/entest"
	"iustitia/internal/entropy"
	"iustitia/internal/experiments"
	"iustitia/internal/flow"
	"iustitia/internal/ml/dataset"
	"iustitia/internal/ml/svm"
	"iustitia/internal/packet"
	"iustitia/internal/pcap"
	"iustitia/internal/qos"
)

// benchScale keeps each experiment benchmark in the seconds range. For
// paper-scale runs use cmd/iustitia-bench -scale=paper.
func benchScale() experiments.Scale {
	return experiments.Scale{
		PerClass: 45, Folds: 3,
		MinFileSize: 2 << 10, MaxFileSize: 6 << 10, Seed: 1,
	}
}

func BenchmarkFig2aFeatureSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFeatureSpace(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Bands[corpus.Encrypted].Mean[0]-r.Bands[corpus.Text].Mean[0],
			"h1-band-gap")
	}
}

func BenchmarkTable1CART(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable1(benchScale(), core.KindCART)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Confusion.Accuracy(), "accuracy-%")
	}
}

func BenchmarkTable1SVM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable1(benchScale(), core.KindSVM)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Confusion.Accuracy(), "accuracy-%")
	}
}

func BenchmarkFig3JSD(b *testing.B) {
	portions := []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0}
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunJSD(benchScale(), []int{1, 2}, portions)
		if err != nil {
			b.Fatal(err)
		}
		// Hypothesis-2 headline: f1 JSD at 20% of the file.
		b.ReportMetric(r.Mean[1][corpus.Text][1], "jsd-f1-at-20%")
	}
}

func BenchmarkTable2FeatureSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable2(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Rows)), "rows")
	}
}

func BenchmarkFig4BufferSize(b *testing.B) {
	sizes := []int{8, 32, 128, 512, 2048}
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunBufferSweep(benchScale(), sizes)
		if err != nil {
			b.Fatal(err)
		}
		series := r.Accuracy["H_b"]["svm"]
		b.ReportMetric(100*series[1], "svm-acc-%-at-b32")
	}
}

func BenchmarkFig5CalcCost(b *testing.B) {
	sizes := []int{32, 128, 512, 1024, 4096}
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCalcCost(benchScale(), core.PhiPrimeSVM, sizes)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Points[3].TimePerVector.Microseconds()), "us-per-vector-b1024")
	}
}

func BenchmarkFig6TrainingMethods(b *testing.B) {
	sizes := []int{32, 256, 1024}
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTrainMethods(benchScale(), sizes, 512)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Accuracy["svm"]["H_b'"][len(sizes)-1], "svm-hb'-acc-%")
	}
}

func BenchmarkFig7EstimationGrid(b *testing.B) {
	epsilons, deltas := experiments.DefaultEstimationGrid()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunEstimationGrid(benchScale(), epsilons, deltas, 1024)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Best["svm"].Accuracy, "svm-best-acc-%")
	}
}

func BenchmarkTable3TimeSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable3(benchScale(), 0.25, 0.75)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Rows)), "rows")
	}
}

func BenchmarkFig8CDBPurging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCDBPurge(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(r.RemovedByClose)/float64(r.TotalFlows), "fin-rst-removed-%")
	}
}

func BenchmarkFig9TraceCDFs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTraceCDF(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PayloadSize.At(140), "P(size<=140)")
	}
}

func BenchmarkFig10Delay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunDelay(benchScale(), []int{32, 1024})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].MeanPacketsToFill, "c-at-b32")
	}
}

func BenchmarkModelSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunModelSelection(benchScale(), []float64{10, 50}, []float64{100, 1000})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.BestExact.Accuracy, "best-exact-acc-%")
	}
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// BenchmarkAblationPurgePolicy compares CDB growth and reclassification
// cost across purge policies.
func BenchmarkAblationPurgePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunPurgePolicy(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Rows[2].FinalCDBSize), "cdb-full-policy")
	}
}

// BenchmarkAblationEvasion measures the §4.6 padding attack against the
// random-skip countermeasure.
func BenchmarkAblationEvasion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunEvasion(benchScale(), 64, []int{0, 512})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Rows[1].EvasionRate, "evasion-%-with-skip")
	}
}

// BenchmarkParallelEngine measures sharded-engine throughput as goroutines
// scale (the multi-queue-router story).
func BenchmarkParallelEngine(b *testing.B) {
	files, err := SyntheticCorpus(1, 30, 1<<10, 4<<10)
	if err != nil {
		b.Fatal(err)
	}
	pool := make([]corpus.File, len(files))
	for i, f := range files {
		pool[i] = corpus.File{Class: f.Class, Data: f.Data}
	}
	clf, err := core.Train(pool, core.TrainConfig{
		Kind: core.KindCART,
		Dataset: core.DatasetConfig{
			Widths: core.PhiPrimeCART, Method: core.MethodPrefix, BufferSize: 32,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	trace, err := packet.Generate(packet.TraceConfig{
		Flows: 2000, Duration: 60 * time.Second, UDPFraction: 0.2,
		CleanCloseFraction: 0.4, RSTFraction: 0.1,
		MinFlowBytes: 256, MaxFlowBytes: 4 << 10,
		MeanPacketGap: 50 * time.Millisecond, Seed: 9,
	}, corpus.NewGenerator(9))
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			pe, err := flow.NewParallelEngine(flow.EngineConfig{
				BufferSize: 32, Classifier: clf,
				CDB: flow.CDBConfig{PurgeOnClose: true},
			}, shards, nil)
			if err != nil {
				b.Fatal(err)
			}
			var next int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := atomic.AddInt64(&next, 1)
					p := &trace.Packets[int(i)%len(trace.Packets)]
					if _, err := pe.Process(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkProcessBatch measures the batched submission path against
// per-packet Process: one SHA-1 per packet either way (the batch's caller
// hashes, as ingest's reader does), then the same shard walk.
func BenchmarkProcessBatch(b *testing.B) {
	files, err := SyntheticCorpus(1, 30, 1<<10, 4<<10)
	if err != nil {
		b.Fatal(err)
	}
	pool := make([]corpus.File, len(files))
	for i, f := range files {
		pool[i] = corpus.File{Class: f.Class, Data: f.Data}
	}
	clf, err := core.Train(pool, core.TrainConfig{
		Kind: core.KindCART,
		Dataset: core.DatasetConfig{
			Widths: core.PhiPrimeCART, Method: core.MethodPrefix, BufferSize: 32,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	trace, err := packet.Generate(packet.TraceConfig{
		Flows: 500, Duration: 30 * time.Second, UDPFraction: 0.2,
		MinFlowBytes: 256, MaxFlowBytes: 2 << 10,
		MeanPacketGap: 50 * time.Millisecond, Seed: 11,
	}, corpus.NewGenerator(11))
	if err != nil {
		b.Fatal(err)
	}
	newEngine := func() *flow.ParallelEngine {
		pe, err := flow.NewParallelEngine(flow.EngineConfig{
			BufferSize: 32, Classifier: clf,
			CDB: flow.CDBConfig{PurgeOnClose: true},
		}, 4, nil)
		if err != nil {
			b.Fatal(err)
		}
		return pe
	}
	b.Run("single", func(b *testing.B) {
		pe := newEngine()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pe.Process(&trace.Packets[i%len(trace.Packets)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch-64", func(b *testing.B) {
		pe := newEngine()
		batch := make([]flow.Routed, 0, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := &trace.Packets[i%len(trace.Packets)]
			batch = append(batch, flow.Routed{ID: flow.IDOf(p.Tuple), Pkt: *p})
			if len(batch) == cap(batch) || i == b.N-1 {
				if _, err := pe.ProcessBatch(batch); err != nil {
					b.Fatal(err)
				}
				batch = batch[:0]
			}
		}
	})
}

// BenchmarkStreamEstimator measures the one-pass estimator's per-byte cost
// against buffering plus offline estimation.
func BenchmarkStreamEstimator(b *testing.B) {
	data := make([]byte, 1024)
	rand.New(rand.NewSource(3)).Read(data)
	b.Run("one-pass", func(b *testing.B) {
		s, err := entest.NewStream(0.25, 0.75, 2, len(data), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Reset()
			if _, err := s.Write(data); err != nil {
				b.Fatal(err)
			}
			_ = s.EstimateH()
		}
	})
	b.Run("buffered", func(b *testing.B) {
		est, err := entest.New(0.25, 0.75, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := est.EstimateH(data, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMulticlass compares DAGSVM against one-vs-one voting:
// prediction latency is the paper's reason for choosing DAGSVM.
func BenchmarkAblationMulticlass(b *testing.B) {
	files, err := SyntheticCorpus(1, 60, 2<<10, 4<<10)
	if err != nil {
		b.Fatal(err)
	}
	pool := make([]corpus.File, len(files))
	for i, f := range files {
		pool[i] = corpus.File{Class: f.Class, Data: f.Data}
	}
	ds, err := core.BuildDataset(pool, core.DatasetConfig{
		Widths: core.PhiPrimeSVM, Method: core.MethodPrefix, BufferSize: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		mc   svm.MultiClass
	}{{"dag", svm.DAG}, {"vote", svm.Vote}} {
		model, err := svm.Train(ds, svm.Config{
			Kernel: svm.RBF{Gamma: 50}, C: 1000, MultiClass: mode.mc, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := model.Predict(ds.Samples[i%ds.Len()].Features); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCounting compares the fixed-array byte histogram (k=1
// fast path) against generic map-based k-gram counting at k=2.
func BenchmarkAblationCounting(b *testing.B) {
	data := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(data)
	b.Run("array-k1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := entropy.H(data, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("map-k2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := entropy.H(data, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationExactVsEstimated compares exact and (δ,ε)-estimated
// entropy-vector extraction at b=1024 (the Table 3 trade-off as a
// micro-bench).
func BenchmarkAblationExactVsEstimated(b *testing.B) {
	data := make([]byte, 1024)
	rand.New(rand.NewSource(2)).Read(data)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := entropy.VectorAt(data, core.PhiPrimeSVM); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("estimated", func(b *testing.B) {
		est, err := entest.New(0.25, 0.75, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := est.Vector(data, core.PhiPrimeSVM); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Component micro-benchmarks ---

func BenchmarkFlowIDHash(b *testing.B) {
	tuple := packet.FiveTuple{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1234, DstPort: 80, Transport: packet.TCP,
	}
	for i := 0; i < b.N; i++ {
		tuple.SrcPort = uint16(i)
		_ = flow.IDOf(tuple)
	}
}

func BenchmarkCDBLookup(b *testing.B) {
	cdb := flow.NewCDB(flow.CDBConfig{})
	tuple := packet.FiveTuple{SrcIP: [4]byte{1, 2, 3, 4}, Transport: packet.TCP}
	ids := make([]flow.ID, 10000)
	for i := range ids {
		tuple.SrcPort = uint16(i)
		tuple.DstPort = uint16(i >> 8)
		ids[i] = flow.IDOf(tuple)
		cdb.Insert(ids[i], corpus.Text, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdb.Lookup(ids[i%len(ids)], time.Duration(i))
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	files, err := SyntheticCorpus(1, 30, 1<<10, 4<<10)
	if err != nil {
		b.Fatal(err)
	}
	clf, err := Train(files, WithModel(ModelCART), WithBufferSize(32))
	if err != nil {
		b.Fatal(err)
	}
	mon, err := NewMonitor(clf, WithMonitorBufferSize(32), WithPurging(4))
	if err != nil {
		b.Fatal(err)
	}
	trace, err := packet.Generate(packet.TraceConfig{
		Flows: 500, Duration: 30 * time.Second, UDPFraction: 0.2,
		CleanCloseFraction: 0.4, RSTFraction: 0.1,
		MinFlowBytes: 256, MaxFlowBytes: 8 << 10,
		MeanPacketGap: 50 * time.Millisecond, Seed: 7,
	}, corpus.NewGenerator(7))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mon.Process(&trace.Packets[i%len(trace.Packets)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorpusGeneration(b *testing.B) {
	gen := corpus.NewGenerator(1)
	for _, class := range []corpus.Class{corpus.Text, corpus.Binary, corpus.Encrypted} {
		b.Run(class.String(), func(b *testing.B) {
			b.SetBytes(4096)
			for i := 0; i < b.N; i++ {
				if _, err := gen.File(class, 4096); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkClassifierPredict(b *testing.B) {
	files, err := SyntheticCorpus(1, 40, 1<<10, 2<<10)
	if err != nil {
		b.Fatal(err)
	}
	payload := files[0].Data[:64]
	for _, model := range []Model{ModelCART, ModelSVM} {
		clf, err := Train(files, WithModel(model), WithBufferSize(64))
		if err != nil {
			b.Fatal(err)
		}
		name := "cart"
		if model == ModelSVM {
			name = "svm"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := clf.Classify(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkQoSScheduler(b *testing.B) {
	for _, policy := range []qos.Policy{qos.FIFO, qos.StrictPriority, qos.WeightedRoundRobin} {
		b.Run(policy.String(), func(b *testing.B) {
			s, err := qos.NewScheduler(qos.Config{Policy: policy, LinkRate: 10 << 20})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				class := corpus.Class(i % corpus.NumClasses)
				if _, err := s.Enqueue(class, 512, time.Duration(i)*time.Microsecond); err != nil {
					b.Fatal(err)
				}
			}
			s.Drain()
		})
	}
}

func BenchmarkPcapWrite(b *testing.B) {
	cfg := packet.DefaultTraceConfig()
	cfg.Flows = 200
	cfg.Duration = 10 * time.Second
	cfg.MaxFlowBytes = 4 << 10
	trace, err := packet.Generate(cfg, corpus.NewGenerator(81))
	if err != nil {
		b.Fatal(err)
	}
	var total int
	for i := range trace.Packets {
		total += len(trace.Packets[i].Payload)
	}
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pcap.WriteTrace(io.Discard, trace); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStratifiedKFold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]dataset.Sample, 3000)
	for i := range samples {
		samples[i] = dataset.Sample{Features: []float64{rng.Float64()}, Label: i % 3}
	}
	ds, err := dataset.New(samples, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.StratifiedKFold(10, rng); err != nil {
			b.Fatal(err)
		}
	}
}
