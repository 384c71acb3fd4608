package flow

import (
	"fmt"
	"time"
	"unsafe"
)

// This file is the engine's flow table and the policies that keep
// per-flow state bounded under flow churn: an inline middlebox cannot fall
// over because traffic got weird — it must shed and evict.

// EvictPolicy selects what the engine does when a new flow arrives while
// the pending-flow table is at MaxPending.
type EvictPolicy int

const (
	// EvictOldest drops the least-recently-active pending flow
	// unclassified to make room for the new one.
	EvictOldest EvictPolicy = iota
	// EvictClassifyPartial classifies the least-recently-active pending
	// flow on whatever prefix it has accumulated so far (falling back to
	// EvictOldest when it has none), then admits the new flow. Trades a
	// noisier label for never losing a flow.
	EvictClassifyPartial
	// EvictShed refuses the new flow: it is labelled FallbackClass
	// immediately, a CDB record is written so later packets route without
	// touching the pending table, and the Shed counter increments.
	EvictShed
)

// String names the policy for flags and logs.
func (p EvictPolicy) String() string {
	switch p {
	case EvictOldest:
		return "oldest"
	case EvictClassifyPartial:
		return "partial"
	case EvictShed:
		return "shed"
	default:
		return fmt.Sprintf("EvictPolicy(%d)", int(p))
	}
}

// ParseEvictPolicy maps a flag value to its policy.
func ParseEvictPolicy(s string) (EvictPolicy, error) {
	switch s {
	case "oldest":
		return EvictOldest, nil
	case "partial":
		return EvictClassifyPartial, nil
	case "shed":
		return EvictShed, nil
	default:
		return 0, fmt.Errorf("flow: unknown eviction policy %q (want oldest|partial|shed)", s)
	}
}

// flowTable is every flow the engine knows: pending flows by ID, threaded
// into a recency list (oldest = least recently active), and the CDB for
// flows already labelled. maxPending, eviction and idleFlush start from
// EngineConfig and are retuned live by the Set* methods.
type flowTable struct {
	pend           map[ID]*pending
	oldest, newest *pending
	cdb            *CDB

	// free is a stack of retired records, each keeping its payload
	// buffer's capacity, so a steady flow churn allocates nothing.
	// freeBytes is what the stack pins (records plus buffer capacity) and
	// never exceeds maxFreeBytes: a burst of retirements is mostly left to
	// the collector, and a record whose buffer alone is over the bound
	// (a very large b) is never kept.
	free      *pending
	freeBytes int

	maxPending int
	eviction   EvictPolicy
	idleFlush  time.Duration
}

// maxFreeBytes bounds the memory one shard's free list may pin.
const maxFreeBytes = 256 << 10

// full reports whether admitting one more flow would exceed MaxPending.
func (t *flowTable) full() bool {
	return t.maxPending > 0 && len(t.pend) >= t.maxPending
}

// newPending returns a record for a flow about to be admitted, reusing a
// retired one (and its buffer's capacity, when acc brings no buffer of its
// own) if the free list has any.
func (t *flowTable) newPending(acc accumulator, progress flowProgress) *pending {
	fl := t.free
	if fl == nil {
		return &pending{acc: acc, flowProgress: progress}
	}
	t.free, fl.next = fl.next, nil
	t.freeBytes -= fl.pinned()
	acc.adopt(&fl.acc)
	fl.acc, fl.flowProgress = acc, progress
	return fl
}

// recycle puts a retired record on the free list, or leaves it to the
// collector when the list is at its bound. The caller must be done with
// the record: its next admission overwrites every field.
func (t *flowTable) recycle(fl *pending) {
	fl.acc.reset()
	fl.flowProgress = flowProgress{}
	if pinned := fl.pinned(); t.freeBytes+pinned <= maxFreeBytes {
		t.freeBytes += pinned
		fl.next, t.free = t.free, fl
	}
}

// pinned is the memory a record holds while it sits on the free list.
func (fl *pending) pinned() int {
	return int(unsafe.Sizeof(*fl)) + fl.acc.retained()
}

// link appends fl to the recency list as the most recently active flow.
func (t *flowTable) link(fl *pending) {
	fl.prev, fl.next = t.newest, nil
	if t.newest != nil {
		t.newest.next = fl
	} else {
		t.oldest = fl
	}
	t.newest = fl
}

// unlink removes fl from the recency list.
func (t *flowTable) unlink(fl *pending) {
	if fl.prev != nil {
		fl.prev.next = fl.next
	} else {
		t.oldest = fl.next
	}
	if fl.next != nil {
		fl.next.prev = fl.prev
	} else {
		t.newest = fl.prev
	}
	fl.prev, fl.next = nil, nil
}

// touch marks fl the most recently active flow.
func (t *flowTable) touch(fl *pending) {
	if t.newest != fl {
		t.unlink(fl)
		t.link(fl)
	}
}

// admitLocked enters a flow into the pending table as its most recently
// active one. Caller holds e.mu.
func (e *Engine) admitLocked(id ID, fl *pending) {
	fl.id = id
	e.table.link(fl)
	e.table.pend[id] = fl
	e.sink.ec.admitted.Add(1)
	e.sink.ec.pending.Add(1)
}

// retireLocked removes a flow from the pending table and the recency
// list. The record itself stays valid until the caller recycles it.
// Caller holds e.mu.
func (e *Engine) retireLocked(id ID, fl *pending) {
	delete(e.table.pend, id)
	e.sink.ec.pending.Add(-1)
	e.table.unlink(fl)
}

// dropLocked retires a flow without any label. Caller holds e.mu.
func (e *Engine) dropLocked(id ID, fl *pending) {
	e.retireLocked(id, fl)
	e.sink.ec.dropped.Add(1)
	e.table.recycle(fl)
}

// evictOneLocked makes room in the pending table by retiring its
// least-recently-active flow, classifying it first under
// EvictClassifyPartial. Classification errors are already counted by the
// failure path and are not the admitting packet's fault, so they are
// swallowed here. Caller holds e.mu.
func (e *Engine) evictOneLocked(now time.Duration) {
	fl := e.table.oldest
	if fl == nil {
		return
	}
	id := fl.id
	e.sink.ec.evicted.Add(1)
	if e.table.eviction == EvictClassifyPartial && fl.acc.hasData() {
		_, _ = e.classifyLocked(id, fl, now)
		return
	}
	e.dropLocked(id, fl)
}

// shedLocked refuses admission for a new flow: it is routed to the
// fallback queue and remembered in the CDB so its later packets are
// answered without pending state. Caller holds e.mu.
func (e *Engine) shedLocked(id ID, now time.Duration) Verdict {
	fallback := e.decider.fallback
	e.sink.ec.shed.Add(1)
	e.table.cdb.Insert(id, fallback, now)
	e.sink.routed(id, fallback)
	return Verdict{Queue: fallback, Routed: true, Fallback: true}
}

// SetMaxPending retunes the pending-table cap live. The new cap governs
// admissions from the next packet on; a table already above a lowered cap
// shrinks one eviction per new-flow arrival rather than being drained,
// so conservation counters are never disturbed in bulk. Like every
// setter it takes e.mu, so no packet observes a half-applied setting.
func (e *Engine) SetMaxPending(n int) error {
	if n < 0 {
		return fmt.Errorf("flow: negative pending cap %d", n)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.table.maxPending = n
	return nil
}

// SetEviction retunes the full-table admission policy live.
func (e *Engine) SetEviction(p EvictPolicy) error {
	if p < EvictOldest || p > EvictShed {
		return fmt.Errorf("flow: unknown eviction policy %d", int(p))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.table.eviction = p
	return nil
}

// SetIdleFlush retunes the idle-flush window live. Zero disables idle
// flushing.
func (e *Engine) SetIdleFlush(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("flow: negative idle-flush window %v", d)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.table.idleFlush = d
	return nil
}
