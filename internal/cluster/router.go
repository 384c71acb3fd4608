package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"iustitia/internal/ingest"
	"iustitia/internal/packet"
)

// RoutePolicy selects what the router does with a packet whose owner node
// is unavailable (unreachable, degraded, draining, or stopped).
type RoutePolicy int

const (
	// PolicyNext reroutes the packet to the next available node on the
	// ring (counted in Rerouted). The flow's per-node state splits across
	// nodes, so verdicts for rerouted flows may diverge from a
	// single-node replay — availability bought with accuracy.
	PolicyNext RoutePolicy = iota
	// PolicyShed drops the packet and counts it in Shed: strict flow
	// affinity, no cross-node state, bounded memory.
	PolicyShed
	// PolicyRequeue holds the packet (stalling its connection) until the
	// owner is available again — the rolling-restart policy: the drained
	// node's successor resumes its checkpoint and the held packets land
	// on the same per-flow state, losing nothing. After RequeueTimeout
	// the packet falls to the next available node (or is shed when none
	// is).
	PolicyRequeue
)

// String names the policy for flags and logs.
func (p RoutePolicy) String() string {
	switch p {
	case PolicyNext:
		return "next"
	case PolicyShed:
		return "shed"
	case PolicyRequeue:
		return "requeue"
	default:
		return fmt.Sprintf("RoutePolicy(%d)", int(p))
	}
}

// ParseRoutePolicy maps a flag value to its policy.
func ParseRoutePolicy(s string) (RoutePolicy, error) {
	switch s {
	case "next":
		return PolicyNext, nil
	case "shed":
		return PolicyShed, nil
	case "requeue":
		return PolicyRequeue, nil
	default:
		return 0, fmt.Errorf("cluster: unknown route policy %q (want next|shed|requeue)", s)
	}
}

// RouterConfig assembles a cluster router.
type RouterConfig struct {
	// Nodes lists the serve instances; at least one is required, names
	// must be unique.
	Nodes []NodeConfig
	// Listeners accept framed-packet client connections. At least one is
	// required.
	Listeners []net.Listener
	// StatusListener, when non-nil, serves the cluster status document
	// (router counters, per-node health, the conservation law, and the
	// machine-readable CLUSTER line) one dump per connection.
	StatusListener net.Listener
	// Replicas is the virtual-node count per node (<= 0 selects
	// DefaultReplicas).
	Replicas int
	// Policy selects the behaviour when a packet's owner is unavailable.
	Policy RoutePolicy
	// RequeueTimeout bounds how long one packet waits for a node before
	// falling through (PolicyRequeue: for its owner; any policy: for any
	// available node). Zero waits until the router itself drains.
	RequeueTimeout time.Duration
	// Probe tunes health polling.
	Probe ProbeConfig
	// DialTimeout bounds one upstream dial. Zero defaults to 2s.
	DialTimeout time.Duration
	// SendRetries bounds one ingest.Client's consecutive delivery
	// attempts before the router treats the node as down and re-routes.
	// Zero defaults to 3; negative means a single attempt.
	SendRetries int
	// SendBackoffBase / SendBackoffMax tune the client's reconnect
	// backoff (exponential with jitter). Zeroes take the client
	// defaults.
	SendBackoffBase time.Duration
	SendBackoffMax  time.Duration
	// Seed drives client reconnect jitter.
	Seed int64
	// MaxFrame bounds the payload length a frame header may declare
	// (<= 0 selects ingest.DefaultMaxFrame).
	MaxFrame int
	// ReadTimeout / IdleTimeout are the per-connection deadlines, as on
	// the ingest server. Zero disables.
	ReadTimeout time.Duration
	IdleTimeout time.Duration
	// JournalCap bounds the per-node replay journal of sent-but-unacked
	// packets (see sender.go). Zero selects DefaultJournalCap; negative
	// disables journaling (and with it crash replay).
	JournalCap int
	// AdminTimeout bounds one membership operation: how long ADD waits
	// for the new node to become available, and how long a migration may
	// wait for the losing node's watermark. Zero defaults to 10s.
	AdminTimeout time.Duration
}

// DefaultJournalCap is the per-node replay journal bound when
// RouterConfig.JournalCap is zero.
const DefaultJournalCap = 4096

// RouterStats is a point-in-time summary of router activity. The frame
// counters obey the router-level conservation law
// Received == Forwarded + Quarantined + Shed.
type RouterStats struct {
	// State is the router lifecycle state (reusing the ingest FSM
	// vocabulary): healthy flips to degraded while any node is
	// unavailable.
	State ingest.State
	// ActiveConns and TotalConns count client connections.
	ActiveConns, TotalConns int
	// Received counts frame events read from clients: every valid frame
	// plus every quarantine event.
	Received int
	// Forwarded counts packets accepted for delivery to some node: each is
	// on that node's connection or still in its replay journal, and after
	// a clean Shutdown every one has been written.
	Forwarded int
	// Quarantined counts malformed-frame events survived by resync.
	Quarantined int
	// Shed counts packets dropped by policy (owner unavailable under
	// PolicyShed, or no node available within RequeueTimeout / at drain).
	Shed int
	// Rerouted counts forwarded packets that went to a non-owner node.
	Rerouted int
	// Requeued counts wait episodes: packets that had to block for a
	// node to become available before being forwarded or shed.
	Requeued int
	// SendFailures counts upstream deliveries that exhausted the
	// client's retries (each marks the node unreachable and re-routes).
	SendFailures int
	// Replayed counts journal entries resent after a node's availability
	// loss (same node, original sequence — deduped by the node when its
	// state already covers them) or re-routed from a removed dead node
	// (fresh sequence on the new owner's stream).
	Replayed int
	// ReplayDropped counts a removed dead node's journal entries that no
	// surviving node would accept.
	ReplayDropped int
	// JournalDropped counts journal entries evicted past JournalCap —
	// packets that can no longer be replayed after a crash.
	JournalDropped int
	// Journaled is the current total of sent-but-unacked journal entries
	// across nodes (a gauge, not a counter).
	Journaled int
	// MigratedFlows counts flows (pending + CDB records) moved by
	// flow-table migrations; MigrationsSkipped counts (loser, gainer)
	// pairs whose migration was skipped because the loser was dead.
	MigratedFlows     int
	MigrationsSkipped int
	// NodesAdded and NodesRemoved count live membership changes.
	NodesAdded, NodesRemoved int
	// PerNode counts forwarded packets per node name.
	PerNode map[string]int
	// ConservationViolations counts probe snapshots whose per-node
	// transport law did not balance — always zero against healthy serve
	// instances.
	ConservationViolations int
}

// ClusterStats aggregates the last-known node snapshots under the
// cluster-wide conservation law.
type ClusterStats struct {
	// Nodes is the number of configured nodes; Available how many are
	// currently routable.
	Nodes, Available int
	// SumReceived etc. are sums over every node with a parsed snapshot.
	SumReceived, SumAdmitted, SumQuarantined, SumShed int
	// SumClassified and SumQueue aggregate the engine verdict counters.
	SumClassified int
	SumQueue      [3]int
}

// Gap returns ΣReceived - (ΣAdmitted + ΣQuarantined + ΣShed): zero when
// the cluster-wide conservation law holds.
func (cs ClusterStats) Gap() int {
	return cs.SumReceived - (cs.SumAdmitted + cs.SumQuarantined + cs.SumShed)
}

// Router spreads framed-packet connections across serve nodes by
// consistent hashing over flow IDs, with health-aware failover and live
// membership (see admin.go).
type Router struct {
	cfg    RouterConfig
	probes *prober

	// member is the membership gate: routing holds it shared across one
	// packet's target selection and send; AddNode/RemoveNode hold it
	// exclusively across the ring swap and flow-table migration, so no
	// packet lands on a losing node after its state is exported. ring and
	// senders are guarded by it.
	member  sync.RWMutex
	ring    *Ring
	senders map[string]*nodeSender

	force     chan struct{} // closed at drain deadline: aborts waits
	forceOnce sync.Once
	done      chan struct{}
	watchStop chan struct{}

	readerWG sync.WaitGroup
	acceptWG sync.WaitGroup
	statusWG sync.WaitGroup
	watchWG  sync.WaitGroup

	mu                sync.Mutex
	conns             map[net.Conn]struct{}
	totalConns        int
	received          int
	forwarded         int
	quarantined       int
	shed              int
	rerouted          int
	requeued          int
	sendFailures      int
	replayed          int
	replayDropped     int
	journalDropped    int
	migratedFlows     int
	migrationsSkipped int
	nodesAdded        int
	nodesRemoved      int
	perNode           map[string]int
	violations        int
	lifecycle         ingest.State
	started           bool
	shutdown          bool
	shutdownErr       error
}

// NewRouter validates cfg and builds a router. Call Start to begin
// accepting.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: at least one node is required")
	}
	if len(cfg.Listeners) == 0 {
		return nil, errors.New("cluster: at least one listener is required")
	}
	if cfg.Policy < PolicyNext || cfg.Policy > PolicyRequeue {
		return nil, fmt.Errorf("cluster: unknown route policy %d", int(cfg.Policy))
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.SendRetries == 0 {
		cfg.SendRetries = 3
	}
	ring := NewRing(cfg.Replicas)
	for _, n := range cfg.Nodes {
		if n.Name == "" || n.Addr == "" || n.StatusAddr == "" {
			return nil, fmt.Errorf("cluster: node %+v needs name, addr, and status addr", n)
		}
		if err := ring.Add(n.Name); err != nil {
			return nil, err
		}
	}
	r := &Router{
		cfg:       cfg,
		ring:      ring,
		probes:    newProber(cfg.Probe, cfg.Nodes),
		senders:   make(map[string]*nodeSender, len(cfg.Nodes)),
		force:     make(chan struct{}),
		done:      make(chan struct{}),
		watchStop: make(chan struct{}),
		conns:     make(map[net.Conn]struct{}),
		perNode:   make(map[string]int),
		lifecycle: ingest.StateStarting,
	}
	for _, n := range cfg.Nodes {
		r.senders[n.Name] = r.newSender(n.Name)
	}
	return r, nil
}

// Start spawns the probers, accept loops, and status listener.
func (r *Router) Start() error {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return errors.New("cluster: router already started")
	}
	r.started = true
	r.lifecycle = ingest.StateHealthy
	r.mu.Unlock()

	r.probes.start()
	r.watchWG.Add(1)
	go r.watchHealth()
	for _, l := range r.cfg.Listeners {
		r.acceptWG.Add(1)
		go r.acceptLoop(l)
	}
	if r.cfg.StatusListener != nil {
		r.statusWG.Add(1)
		go r.statusLoop(r.cfg.StatusListener)
	}
	return nil
}

// UpdateNode redirects a ring name to a successor instance (checkpoint
// handoff): the node keeps its name — and therefore its hash arcs — but
// its ingest and status addresses move to the restarted process. The
// upstream connection to the old instance is closed and the replay
// journal dropped: an orchestrated handoff means the predecessor drained
// and checkpointed everything it was sent (its loss edge flushed the
// sender), so replaying into the successor (whose watermark restarts)
// would double-count.
func (r *Router) UpdateNode(cfg NodeConfig) error {
	if err := r.probes.updateNode(cfg); err != nil {
		return err
	}
	r.member.RLock()
	s := r.senders[cfg.Name]
	r.member.RUnlock()
	if s != nil {
		s.mu.Lock()
		s.journal.drain()
		s.pendingReplay = false
		s.mu.Unlock()
		_ = s.closeConn() // what the predecessor did not take is not the successor's
	}
	return nil
}

// Health returns the router's current view of one node.
func (r *Router) Health(name string) (NodeHealth, bool) {
	return r.probes.snapshot(name)
}

// acceptLoop accepts client connections until its listener closes.
func (r *Router) acceptLoop(l net.Listener) {
	defer r.acceptWG.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		r.mu.Lock()
		draining := r.shutdown
		if !draining {
			r.conns[c] = struct{}{}
			r.totalConns++
		}
		r.mu.Unlock()
		if draining {
			c.Close()
			continue
		}
		r.readerWG.Add(1)
		go r.serveConn(c)
	}
}

// routerConn applies the idle/read deadlines, mirroring the ingest
// server's frame-boundary semantics.
type routerConn struct {
	net.Conn
	idle, read time.Duration
	atBoundary bool
}

func (d *routerConn) Read(p []byte) (int, error) {
	timeout := d.read
	if d.atBoundary {
		timeout = d.idle
		d.atBoundary = false
	}
	if timeout > 0 {
		if err := d.Conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return 0, err
		}
	}
	return d.Conn.Read(p)
}

// serveConn reads frames off one client connection and routes each packet
// to its owner node. Packets of one connection are forwarded strictly in
// order, so per-flow order is preserved end to end.
func (r *Router) serveConn(c net.Conn) {
	defer r.readerWG.Done()
	defer func() {
		c.Close()
		r.mu.Lock()
		delete(r.conns, c)
		r.mu.Unlock()
	}()

	dc := &routerConn{Conn: c, idle: r.cfg.IdleTimeout, read: r.cfg.ReadTimeout}
	fr := ingest.NewFrameReader(dc, r.cfg.MaxFrame, func() {
		r.mu.Lock()
		r.received++
		r.quarantined++
		r.mu.Unlock()
	})
	for {
		dc.atBoundary = true
		pkt, err := fr.Next()
		if err != nil {
			return
		}
		r.mu.Lock()
		r.received++
		r.mu.Unlock()
		r.route(&pkt)
	}
}

// watchHealth reacts to availability edges. On loss the node's upstream
// connection is closed (a draining node's established connections are
// read until EOF, so a router holding them open would pin the drain
// against its deadline) and its journal is marked for replay. On regain
// the journal is replayed ahead of any new send.
func (r *Router) watchHealth() {
	defer r.watchWG.Done()
	last := make(map[string]bool)
	for {
		ch := r.probes.changeCh()
		seen := r.probes.view()
		for name, h := range seen {
			avail := h.Available()
			if last[name] && !avail {
				r.onNodeLost(name)
			}
			if !last[name] && avail {
				r.onNodeRegained(name)
			}
			last[name] = avail
		}
		for name := range last {
			if _, ok := seen[name]; !ok {
				delete(last, name) // node removed from the cluster
			}
		}
		select {
		case <-ch:
		case <-r.watchStop:
			return
		}
	}
}

// onNodeLost arms journal replay for the node's return, writes out what
// its sender still holds and closes the upstream connection. A node that
// is gone fails that flush; the frames are in the journal.
func (r *Router) onNodeLost(name string) {
	r.member.RLock()
	s := r.senders[name]
	r.member.RUnlock()
	if s == nil {
		return
	}
	s.mu.Lock()
	s.pendingReplay = true
	s.mu.Unlock()
	_ = s.closeConn()
}

// onNodeRegained replays the node's unacked journal proactively, so held
// requeues that wake on the same health change find the stream already
// caught up.
func (r *Router) onNodeRegained(name string) {
	r.member.RLock()
	s := r.senders[name]
	r.member.RUnlock()
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.pendingReplay {
		_ = r.replayLocked(s) // a failure re-arms via the next loss edge
	}
	s.mu.Unlock()
}

// route delivers one packet per the policy. Every packet entering here is
// accounted exactly once: Forwarded when a node's sender accepts it, Shed
// otherwise. The candidate list is recomputed on every pass under the
// membership gate — a membership change between passes simply re-targets
// the packet on the new ring — and the gate is released across requeue
// waits so a held packet never blocks an ADD/REMOVE. The pass itself
// copies nothing: candidates land in a stack buffer and health is the
// prober's published view.
func (r *Router) route(pkt *packet.Packet) {
	point := PointOfTuple(pkt.Tuple)
	var deadline <-chan time.Time
	waited, expired := false, false
	var buf [8]string // rings of more nodes spill to the heap
	for {
		r.member.RLock()
		candidates := r.ring.AppendCandidates(buf[:0], point, r.ring.Len())
		if len(candidates) == 0 {
			r.member.RUnlock()
			r.countShed()
			return
		}
		owner := candidates[0]
		health := r.probes.view()
		target := ""
		rerouted := false
		if health.available(owner) {
			target = owner
		} else {
			switch r.cfg.Policy {
			case PolicyShed:
				r.member.RUnlock()
				r.countShed()
				return
			case PolicyNext:
				for _, n := range candidates[1:] {
					if health.available(n) {
						target, rerouted = n, true
						break
					}
				}
			case PolicyRequeue:
				// Hold for the owner; only a requeue timeout falls
				// through to the successor candidates (handled below).
			}
		}
		if target == "" && expired {
			// Requeue window exhausted: any available candidate, else shed.
			for _, n := range candidates {
				if health.available(n) {
					target = n
					rerouted = n != owner
					break
				}
			}
			if target == "" {
				r.member.RUnlock()
				r.countShed()
				return
			}
		}
		if target != "" {
			s := r.senders[target]
			var err error
			if s == nil {
				err = fmt.Errorf("cluster: no sender for node %q", target)
			} else {
				err = r.sendToNode(s, pkt)
			}
			r.member.RUnlock()
			if err == nil {
				r.countForwarded(target, rerouted)
				return
			}
			r.mu.Lock()
			r.sendFailures++
			r.mu.Unlock()
			r.probes.markUnreachable(target, err)
			continue // re-route under the fresh health view
		}
		r.member.RUnlock()

		// No routable target yet: wait for a health change, the requeue
		// deadline, or the router's own drain force.
		if !waited {
			waited = true
			r.mu.Lock()
			r.requeued++
			r.mu.Unlock()
			if r.cfg.RequeueTimeout > 0 {
				t := time.NewTimer(r.cfg.RequeueTimeout)
				defer t.Stop()
				deadline = t.C
			}
		}
		ch := r.probes.changeCh()
		select {
		case <-ch:
		case <-deadline: // nil when no RequeueTimeout: never fires
			// One more pass: the expired branch picks any candidate or sheds.
			expired = true
			deadline = nil
		case <-r.force:
			r.countShed()
			return
		}
	}
}

func (r *Router) countForwarded(node string, rerouted bool) {
	r.mu.Lock()
	r.forwarded++
	r.perNode[node]++
	if rerouted {
		r.rerouted++
	}
	r.mu.Unlock()
}

func (r *Router) countShed() {
	r.mu.Lock()
	r.shed++
	r.mu.Unlock()
}

// Stats returns a snapshot of the router counters.
func (r *Router) Stats() RouterStats {
	health := r.probes.view()
	journaled := r.JournalDepth()
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RouterStats{
		State:                  r.lifecycle,
		ActiveConns:            len(r.conns),
		TotalConns:             r.totalConns,
		Received:               r.received,
		Forwarded:              r.forwarded,
		Quarantined:            r.quarantined,
		Shed:                   r.shed,
		Rerouted:               r.rerouted,
		Requeued:               r.requeued,
		SendFailures:           r.sendFailures,
		Replayed:               r.replayed,
		ReplayDropped:          r.replayDropped,
		JournalDropped:         r.journalDropped,
		Journaled:              journaled,
		MigratedFlows:          r.migratedFlows,
		MigrationsSkipped:      r.migrationsSkipped,
		NodesAdded:             r.nodesAdded,
		NodesRemoved:           r.nodesRemoved,
		PerNode:                make(map[string]int, len(r.perNode)),
		ConservationViolations: r.violations,
	}
	for n, c := range r.perNode {
		st.PerNode[n] = c
	}
	if st.State == ingest.StateHealthy {
		for _, h := range health {
			if !h.Available() {
				st.State = ingest.StateDegraded
				break
			}
		}
	}
	return st
}

// ClusterStats sums the last-known node snapshots and records any
// per-node conservation violation.
func (r *Router) ClusterStats() ClusterStats {
	health := r.probes.view()
	var cs ClusterStats
	cs.Nodes = len(health)
	for _, h := range health {
		if h.Available() {
			cs.Available++
		}
		if h.LastSeen.IsZero() {
			continue
		}
		s := h.Status
		cs.SumReceived += s.Received
		cs.SumAdmitted += s.Admitted
		cs.SumQuarantined += s.Quarantined
		cs.SumShed += s.Shed
		cs.SumClassified += s.EngineClassified
		for i := range s.Queue {
			cs.SumQueue[i] += s.Queue[i]
		}
		if s.ConservationGap() != 0 {
			r.mu.Lock()
			r.violations++
			r.mu.Unlock()
		}
	}
	return cs
}

// Shutdown drains the router: stop accepting, let client connections
// finish (force-closing them and shedding waiting packets when ctx
// expires), flush and close upstream clients, stop probing. A sender that
// cannot write out what it accepted is reported: those packets were
// counted Forwarded and die with the journal. Idempotent; concurrent calls
// share the first invocation's result.
func (r *Router) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	if r.shutdown {
		r.mu.Unlock()
		<-r.done
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.shutdownErr
	}
	r.shutdown = true
	r.lifecycle = ingest.StateDraining
	r.mu.Unlock()

	var errs []error
	for _, l := range r.cfg.Listeners {
		if err := l.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cluster: close listener: %w", err))
		}
	}
	r.acceptWG.Wait()

	readersDone := make(chan struct{})
	go func() { r.readerWG.Wait(); close(readersDone) }()
	select {
	case <-readersDone:
	case <-ctx.Done():
		errs = append(errs, fmt.Errorf("cluster: drain deadline: %w", ctx.Err()))
		r.forceOnce.Do(func() { close(r.force) })
		r.mu.Lock()
		for c := range r.conns {
			c.Close()
		}
		r.mu.Unlock()
		<-readersDone
	}

	close(r.watchStop)
	r.watchWG.Wait()
	r.member.RLock()
	for name, s := range r.senders {
		if err := s.closeConn(); err != nil {
			errs = append(errs, fmt.Errorf("cluster: flush node %s: %w", name, err))
		}
	}
	r.member.RUnlock()
	r.probes.close()
	if r.cfg.StatusListener != nil {
		if err := r.cfg.StatusListener.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cluster: close status listener: %w", err))
		}
	}
	r.statusWG.Wait()

	r.mu.Lock()
	r.lifecycle = ingest.StateStopped
	err := errors.Join(errs...)
	r.shutdownErr = err
	r.mu.Unlock()
	close(r.done)
	return err
}

// statusLoop accepts status/admin connections; each is served on its own
// goroutine because an ADD or REMOVE command can block on a migration.
func (r *Router) statusLoop(l net.Listener) {
	defer r.statusWG.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		r.statusWG.Add(1)
		go func() {
			defer r.statusWG.Done()
			r.serveStatusConn(c)
		}()
	}
}

// clusterLinePrefix marks the machine-readable cluster summary line.
const clusterLinePrefix = "CLUSTER "

// StatusText renders the cluster status document: router counters,
// per-node health, the conservation sums, one machine-readable CLUSTER
// line, and every node's last-known STATUS line relayed verbatim.
func (r *Router) StatusText() string {
	st := r.Stats()
	cs := r.ClusterStats()
	health := r.probes.view()

	var b strings.Builder
	fmt.Fprintf(&b, "cluster: state=%s nodes=%d available=%d policy=%s\n",
		st.State, cs.Nodes, cs.Available, r.cfg.Policy)
	fmt.Fprintf(&b, "router: received %d, forwarded %d, quarantined %d, shed %d, rerouted %d, requeued %d, send-failures %d\n",
		st.Received, st.Forwarded, st.Quarantined, st.Shed, st.Rerouted, st.Requeued, st.SendFailures)
	fmt.Fprintf(&b, "conns: %d active / %d total\n", st.ActiveConns, st.TotalConns)

	names := make([]string, 0, len(health))
	for n := range health {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := health[n]
		reach := "down"
		if h.Reachable {
			reach = "up"
		}
		detail := "never probed"
		if !h.LastSeen.IsZero() {
			detail = fmt.Sprintf("state=%s received=%d admitted=%d forwarded-to=%d",
				h.Status.State, h.Status.Received, h.Status.Admitted, st.PerNode[n])
		}
		if h.LastErr != nil {
			detail += fmt.Sprintf(" err=%q", h.LastErr)
		}
		fmt.Fprintf(&b, "node %s (%s): %s %s\n", n, h.Config.Addr, reach, detail)
	}
	fmt.Fprintf(&b, "conservation: sum_received=%d sum_admitted=%d sum_quarantined=%d sum_shed=%d gap=%d violations=%d\n",
		cs.SumReceived, cs.SumAdmitted, cs.SumQuarantined, cs.SumShed, cs.Gap(), st.ConservationViolations)

	// The federated ops sums ride the CLUSTER line too, so a plain STATUS
	// scrape shows fleet-wide swap/rollback/degradation state without a
	// second METRICS round trip. Parsers skip unknown keys, so old readers
	// are unaffected.
	depth, sumDegraded, sumSwaps, sumRollbacks := 0, 0, 0, 0
	depth = r.JournalDepth()
	for _, h := range health {
		if h.Metrics != nil {
			sumDegraded += h.Metrics.Engine.DegradedShards
			sumSwaps += h.Metrics.Swap.Swaps
			sumRollbacks += h.Metrics.Swap.Rollbacks
		}
	}
	fmt.Fprintf(&b, clusterLinePrefix+
		"state=%s nodes=%d available=%d received=%d forwarded=%d quarantined=%d shed=%d "+
		"rerouted=%d requeued=%d send_failures=%d replayed=%d replay_dropped=%d "+
		"journal_dropped=%d journaled=%d migrated_flows=%d migrations_skipped=%d "+
		"nodes_added=%d nodes_removed=%d sum_received=%d sum_admitted=%d "+
		"sum_quarantined=%d sum_shed=%d sum_classified=%d conservation_gap=%d violations=%d "+
		"journal_depth=%d sum_degraded=%d sum_swaps=%d sum_rollbacks=%d\n",
		st.State, cs.Nodes, cs.Available, st.Received, st.Forwarded, st.Quarantined, st.Shed,
		st.Rerouted, st.Requeued, st.SendFailures, st.Replayed, st.ReplayDropped,
		st.JournalDropped, st.Journaled, st.MigratedFlows, st.MigrationsSkipped,
		st.NodesAdded, st.NodesRemoved, cs.SumReceived, cs.SumAdmitted,
		cs.SumQuarantined, cs.SumShed, cs.SumClassified, cs.Gap(), st.ConservationViolations,
		depth, sumDegraded, sumSwaps, sumRollbacks)

	for _, n := range names {
		if h := health[n]; !h.LastSeen.IsZero() {
			fmt.Fprintf(&b, "%s\n", h.Status.StatusLine())
		}
	}
	return b.String()
}
