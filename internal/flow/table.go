package flow

import (
	"container/list"
	"fmt"
	"time"
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

// flowTable is every flow the engine knows: pending flows by ID with a
// recency list (least recently active first), and the CDB for flows
// already labelled. maxPending, eviction and idleFlush start from
// EngineConfig and are retuned live by the Set* methods.
type flowTable struct {
	pend map[ID]*pending
	lru  *list.List
	cdb  *CDB

	maxPending int
	eviction   EvictPolicy
	idleFlush  time.Duration
}

// full reports whether admitting one more flow would exceed MaxPending.
func (t *flowTable) full() bool {
	return t.maxPending > 0 && len(t.pend) >= t.maxPending
}

// admitLocked enters a flow into the pending table as its most recently
// active one. Caller holds e.mu.
func (e *Engine) admitLocked(id ID, fl *pending) {
	fl.elem = e.table.lru.PushBack(id)
	e.table.pend[id] = fl
	e.sink.ec.admitted.Add(1)
	e.sink.ec.pending.Add(1)
}

// retireLocked removes a flow from the pending table and the recency
// list. Caller holds e.mu.
func (e *Engine) retireLocked(id ID, fl *pending) {
	delete(e.table.pend, id)
	e.sink.ec.pending.Add(-1)
	if fl.elem != nil {
		e.table.lru.Remove(fl.elem)
		fl.elem = nil
	}
}

// dropLocked retires a flow without any label. Caller holds e.mu.
func (e *Engine) dropLocked(id ID, fl *pending) {
	e.retireLocked(id, fl)
	e.sink.ec.dropped.Add(1)
}

// evictOneLocked makes room in the pending table by retiring its
// least-recently-active flow, classifying it first under
// EvictClassifyPartial. Classification errors are already counted by the
// failure path and are not the admitting packet's fault, so they are
// swallowed here. Caller holds e.mu.
func (e *Engine) evictOneLocked(now time.Duration) {
	front := e.table.lru.Front()
	if front == nil {
		return
	}
	id := front.Value.(ID)
	fl := e.table.pend[id]
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
