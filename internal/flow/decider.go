package flow

import (
	"fmt"

	"iustitia/internal/corpus"
)

// This file is the engine's decider: the fault policy that keeps the
// classifier path alive when the pluggable classifier misbehaves.

// FaultPolicy controls what the engine does when the classifier returns an
// error or panics. The zero value preserves strict behaviour: errors
// propagate to the caller (the flow is still retired so it is never
// re-classified on every subsequent packet).
type FaultPolicy struct {
	// Tolerate routes flows whose classification failed to the engine's
	// FallbackClass instead of returning an error. Panics are recovered in
	// both modes; with Tolerate they too become fallback routings.
	Tolerate bool
	// TripAfter is how many consecutive classification failures switch the
	// engine into degraded mode, where classification short-circuits to
	// the fallback queue without calling the classifier at all. Zero
	// defaults to 8; negative disables degraded mode.
	TripAfter int
	// ProbeEvery is how often a degraded engine probes the real classifier
	// to detect recovery: every ProbeEvery-th classification attempt runs
	// the classifier, and a success restores normal operation. Zero
	// defaults to 64.
	ProbeEvery int
}

// withDefaults resolves the zero TripAfter and ProbeEvery.
func (f FaultPolicy) withDefaults() FaultPolicy {
	if f.TripAfter == 0 {
		f.TripAfter = 8
	}
	if f.ProbeEvery <= 0 {
		f.ProbeEvery = 64
	}
	return f
}

// decider applies the fault policy around every classification and owns
// the degraded-mode breaker's bookkeeping (the degraded flag itself is an
// atomic in engineCounters so health probes read it lock-free). Guarded
// by Engine.mu.
type decider struct {
	faults      FaultPolicy // defaults resolved
	fallback    corpus.Class
	consecFails int // consecutive classifier failures
	sinceProbe  int // classify attempts since the last degraded-mode probe
}

// safeCall invokes the accumulator's classification with panic
// containment: an escaping panic on the packet path would take the whole
// inline engine down, so it is converted into an ordinary classification
// error. An out-of-range class is an error too.
func safeCall(acc *accumulator) (label corpus.Class, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("classifier panic: %v", r)
		}
	}()
	label, err = acc.classify()
	if err == nil && (label < 0 || label >= corpus.NumClasses) {
		return 0, fmt.Errorf("classifier returned out-of-range class %d", int(label))
	}
	return label, err
}

// decide produces the label for a ready (or flushed) flow under the fault
// policy: panic recovery, consecutive-failure counting, degraded-mode
// short-circuiting, and probing recovery. It reports whether the label is
// a fallback (failure or degraded short-circuit) rather than a real
// classification.
func (d *decider) decide(acc *accumulator, ec *engineCounters) (label corpus.Class, fellBack bool, err error) {
	f := d.faults
	if ec.degraded.Load() {
		d.sinceProbe++
		if d.sinceProbe < f.ProbeEvery {
			return d.fallback, true, nil
		}
		d.sinceProbe = 0 // fall through: probe the real classifier
	}
	label, err = safeCall(acc)
	if err != nil {
		ec.failed.Add(1)
		d.consecFails++
		if f.Tolerate {
			if f.TripAfter > 0 && d.consecFails >= f.TripAfter && !ec.degraded.Load() {
				ec.degraded.Store(true)
				d.sinceProbe = 0
			}
			return d.fallback, true, nil
		}
		return 0, true, err
	}
	d.consecFails = 0
	ec.degraded.Store(false) // a successful probe (or call) restores normal mode
	return label, false, nil
}
