// Command bench is the wire-to-verdict benchmark: it assembles
// iustitia-serve (and, for one workload, iustitia-router in front of two
// serve nodes) in process at their flag defaults, drives the assembly over
// one loopback TCP connection from one generator goroutine, and reports
// end-to-end metrics from an untraced run and a per-layer cost table from a
// separate traced run. See README.md.
//
//	go run . -seed 11 -out out/run.json          every workload, both runs
//	go run . -workload mice -trace 0             one run, result line last
//	go run . -compare a.json b.json              A/A and A/B comparator
//	go run . -smoke                              every workload at 1/100 size
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadName = flag.String("workload", "", "run one workload and print its result line last (default: all five, untraced then traced)")
		seed         = flag.Int64("seed", 11, "workload seed: pool content, flow shapes, 5-tuples and order all derive from it")
		seconds      = flag.Float64("seconds", defaultSeconds, "measuring time the packet counts are scaled to")
		trace        = flag.Int("trace", 0, "with -workload: 0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics)")
		out          = flag.String("out", "", "write every record of the run to this JSON file")
		outDir       = flag.String("outdir", "out", "directory for trace-<workload>.json files")
		runs         = flag.Int("runs", 1, "without -workload: repeat the untraced run of each workload this many times")
		smoke        = flag.Bool("smoke", false, "run every workload at 1/100 size, untraced, and check correctness only")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments: a.json b.json")
		emit         = flag.Bool("emit-benchmark-json", false, "print BENCHMARK.json generated from the metric and workload tables")
	)
	flag.Parse()

	switch {
	case *emit:
		return emitBenchmarkJSON(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two run files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *smoke:
		return runSmoke(*seed)
	case *workloadName != "":
		w, err := workloadByName(*workloadName)
		if err != nil {
			return err
		}
		rec, err := runOne(w, *seed, *seconds, *trace != 0, *outDir)
		if err != nil {
			return err
		}
		rec.print(os.Stdout)
		if *out != "" {
			if err := writeRunFile(*out, runFile{Records: []*record{rec}}); err != nil {
				return err
			}
		}
		fmt.Println(rec.resultLine())
		if !rec.Correct {
			return fmt.Errorf("%s: run is not correct (failed=%d)", w.Name, rec.Failed)
		}
		return nil
	default:
		return runAll(*seed, *seconds, *runs, *out, *outDir)
	}
}

func runOne(w *workload, seed int64, seconds float64, traced bool, outDir string) (*record, error) {
	if traced {
		return runTraced(w, seed, seconds, outDir)
	}
	return runUntraced(w, seed, seconds, 1)
}

// runAll is the one command: every workload untraced (runs times) then
// traced, every metric printed by name, non-zero exit if any verdict
// differs from the reference replay.
func runAll(seed int64, seconds float64, runs int, out, outDir string) error {
	var rf runFile
	bad := 0
	for _, w := range workloads {
		for i := 0; i <= runs; i++ {
			rec, err := runOne(w, seed, seconds, i == runs, outDir)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			rec.print(os.Stdout)
			rf.Records = append(rf.Records, rec)
			if !rec.Correct {
				bad++
			}
		}
	}
	if out != "" {
		if err := writeRunFile(out, rf); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs are not correct", bad)
	}
	return nil
}

// runSmoke runs every workload untraced at 1/100 size. It is what the
// tests and a quick "does it still work" check use; its numbers mean
// nothing.
func runSmoke(seed int64) error {
	for _, w := range workloads {
		rec, err := runUntraced(w, seed, defaultSeconds, 0.01)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		fmt.Printf("%-15s attempted=%d failed=%d correct=%v\n", w.Name, rec.Attempted, rec.Failed, rec.Correct)
		if !rec.Correct {
			return fmt.Errorf("%s: %v", w.Name, rec.Problems)
		}
	}
	return nil
}
