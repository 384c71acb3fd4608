package main

import (
	"crypto/sha1"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The box this benchmark runs on shares its host: the same binary on the
// same seed gets 10-25 % slower or faster over minutes, and every metric
// measured in seconds drifts with it (packets_per_s x cpu_us_per_packet
// stays put at 1.9 cores: the box changes, not the system). The
// calibrator measures that drift beside the measurement, with work that
// touches nothing of the system under test: every 10 ms a thread of its
// own hashes a fixed 64 KiB buffer with SHA-1 and charges the thread-CPU
// time that took (about 1 % of one core).
//
// The three end-to-end metrics measured in seconds are reported at
// reference speed: scaled by unit time here / calRefUnitNs. In A/A sets
// that halves their spread on the most drift-prone workload (deepbuf_stream
// 22 % -> 11 % on packets_per_s, 21 % -> 7 % on cpu_us_per_packet) and
// shrinks it by a third elsewhere. The raw figures and the measured unit
// time stay in every record's extras.
type calibrator struct {
	stop  atomic.Bool
	done  chan struct{}
	units atomic.Int64
	ns    atomic.Int64
}

// calRefUnitNs is the unit time the reference box shows when its host is
// quiet. It only fixes the scale of the normalised metrics; both sides of
// any comparison are divided by it.
const calRefUnitNs = 95_000

const calEvery = 10 * time.Millisecond

func threadCPUNs() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

func startCalibrator() *calibrator {
	c := &calibrator{done: make(chan struct{})}
	go func() {
		runtime.LockOSThread()
		defer close(c.done)
		buf := make([]byte, 64<<10)
		for !c.stop.Load() {
			t0 := threadCPUNs()
			s := sha1.Sum(buf)
			buf[0] = s[0]
			c.ns.Add(threadCPUNs() - t0)
			c.units.Add(1)
			time.Sleep(calEvery)
		}
	}()
	return c
}

func (c *calibrator) finish() {
	c.stop.Store(true)
	<-c.done
}

// calMark is the calibrator's running totals at one moment.
type calMark struct{ units, ns int64 }

func (c *calibrator) mark() calMark { return calMark{c.units.Load(), c.ns.Load()} }

// calSpan accumulates the calibration units that ran during the stretches
// of a run one metric is measured over.
type calSpan struct{ units, ns int64 }

func (s *calSpan) add(from, to calMark) {
	s.units += to.units - from.units
	s.ns += to.ns - from.ns
}

// unitNs is the mean unit time over the span, 0 if no unit completed.
func (s calSpan) unitNs() float64 {
	if s.units == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.units)
}

// slowdown is how much slower than the reference the box ran over the
// span: a time measured then is divided by it, a rate multiplied. It is 1
// when no unit completed (a span shorter than the calibration period).
func (s calSpan) slowdown() float64 {
	if u := s.unitNs(); u > 0 {
		return u / calRefUnitNs
	}
	return 1
}
