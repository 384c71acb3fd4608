package ingest

import (
	"fmt"
	"time"
)

// This file is the server's live-reconfig surface. Changes are applied
// under the frame gate — the same exclusion a quiesced checkpoint or
// cluster membership change uses — so no frame is ever mid-way through
// its count-dedup-enqueue window while a policy flips, and the transport
// conservation law (Received == Admitted + Quarantined + Shed) holds
// exactly through the transition.

// Reconfigure runs fn while frame intake is paused: readers finish the
// frame they are on and wait, fn applies its changes, intake resumes.
// Unlike a quiesce this does not drain the worker queues — a reconfig
// needs mutual exclusion with admission accounting, not an empty engine.
func (s *Server) Reconfigure(fn func()) {
	s.gate.Lock()
	defer s.gate.Unlock()
	fn()
}

// OverflowPolicy returns the backpressure policy currently in force.
func (s *Server) OverflowPolicy() OverflowPolicy {
	return OverflowPolicy(s.overflow.Load())
}

// SetOverflow retunes the backpressure policy live. Connections blocked
// in OverflowBlock keep waiting for queue space (their packet is already
// mid-admission); the new policy governs every frame that follows.
func (s *Server) SetOverflow(p OverflowPolicy) error {
	if p < OverflowBlock || p > OverflowDisconnect {
		return fmt.Errorf("ingest: unknown overflow policy %d", int(p))
	}
	s.overflow.Store(int32(p))
	return nil
}

// Batch returns the per-worker engine submission bound currently in
// force.
func (s *Server) Batch() int { return int(s.batchN.Load()) }

// SetBatch retunes the batch bound live; the next read admitted observes
// it. A bound of 1 makes every message carry a single packet.
func (s *Server) SetBatch(n int) error {
	if n < 1 {
		return fmt.Errorf("ingest: batch size %d is not positive", n)
	}
	s.batchN.Store(int32(n))
	return nil
}

// QueueDepth reports how many packets sit in the worker queues right now
// and the total queue capacity.
func (s *Server) QueueDepth() (depth, capacity int) {
	for i := range s.queues {
		depth += int(s.queues[i].space.used.Load())
		capacity += int(s.queues[i].space.limit)
	}
	return depth, capacity
}

// Uptime reports how long the server has been started (zero before
// Start).
func (s *Server) Uptime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.startTime.IsZero() {
		return 0
	}
	return time.Since(s.startTime)
}
