package main

import (
	"fmt"
	"io"
)

// Comparator verdicts for one workload × end-to-end metric.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares side b's runs against side a's for a metric that may
// worsen by at most bound (a share of a's median). A spread wider than
// the bound on either side means the runs cannot resolve a change of that
// size: unresolved, not same.
func judge(a, b []float64, better string, bound float64) (verdict string, worseBy float64) {
	if ma := median(a); ma != 0 {
		worseBy = (median(b) - ma) / ma
		if better == "higher" {
			worseBy = -worseBy
		}
	}
	if len(a) > 1 && spreadShare(a) > bound || len(b) > 1 && spreadShare(b) > bound {
		return verdictUnresolved, worseBy
	}
	if worseBy > bound {
		return verdictWorse, worseBy
	}
	return verdictSame, worseBy
}

// runSet is one file's untraced runs of one workload.
type runSet struct {
	metrics           map[string][]float64
	attempted, failed int
	runs              int
}

func collectRuns(rf runFile) map[string]*runSet {
	out := map[string]*runSet{}
	for _, r := range rf.Records {
		if r.Traced {
			continue
		}
		s := out[r.Workload]
		if s == nil {
			s = &runSet{metrics: map[string][]float64{}}
			out[r.Workload] = s
		}
		s.runs++
		s.attempted += r.Attempted
		s.failed += r.Failed
		for name, mv := range r.Metrics {
			s.metrics[name] = append(s.metrics[name], mv.Value)
		}
	}
	return out
}

// compareFiles prints, per workload × end-to-end metric, each side's
// quartiles and median, the metric's bound (the table BENCHMARK.json is
// generated from) and the verdict. It returns an error (non-zero exit) on
// any `worse` or on a higher failed share.
func compareFiles(w io.Writer, pathA, pathB string) error {
	fa, err := readRunFile(pathA)
	if err != nil {
		return err
	}
	fb, err := readRunFile(pathB)
	if err != nil {
		return err
	}
	a, b := collectRuns(fa), collectRuns(fb)

	worse, unresolved := 0, 0
	for _, wl := range workloads {
		sa, sb := a[wl.Name], b[wl.Name]
		if sa == nil || sb == nil {
			continue
		}
		fmt.Fprintf(w, "== %s (%d vs %d runs)\n", wl.Name, sa.runs, sb.runs)
		fmt.Fprintf(w, "   %-34s %12s %12s %12s | %12s %12s %12s | %6s %8s %s\n",
			"metric", "a.q1", "a.median", "a.q3", "b.q1", "b.median", "b.q3", "bound", "worse_by", "verdict")
		for _, d := range endToEnd {
			va, vb := sa.metrics[d.Name], sb.metrics[d.Name]
			if va == nil || vb == nil {
				continue
			}
			verdict, by := judge(va, vb, d.Better, d.Bound)
			switch verdict {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
			}
			aq1, aq3 := quartiles(va)
			bq1, bq3 := quartiles(vb)
			fmt.Fprintf(w, "   %-34s %12.4f %12.4f %12.4f | %12.4f %12.4f %12.4f | %5.0f%% %+7.1f%% %s\n",
				d.Name, aq1, median(va), aq3, bq1, median(vb), bq3, d.Bound*100, by*100, verdict)
		}
		shareA := float64(sa.failed) / float64(max(sa.attempted, 1))
		shareB := float64(sb.failed) / float64(max(sb.attempted, 1))
		fmt.Fprintf(w, "   failed_share                       a=%g b=%g\n", shareA, shareB)
		if shareB > shareA {
			worse++
			fmt.Fprintf(w, "   failed_share is higher on b: worse\n")
		}
	}
	fmt.Fprintf(w, "summary: %d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return fmt.Errorf("%d metric x workload pairs are worse", worse)
	}
	return nil
}
