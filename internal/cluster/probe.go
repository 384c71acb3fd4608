package cluster

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"iustitia/internal/ingest"
	"iustitia/internal/ops"
)

// NodeConfig names one serve instance: its cluster-unique ring name, the
// framed-packet ingest address, and the status-listener address the
// prober polls.
type NodeConfig struct {
	Name       string
	Addr       string
	StatusAddr string
}

// NodeHealth is the router's current view of one node: the last parsed
// STATUS snapshot plus reachability bookkeeping.
type NodeHealth struct {
	Config NodeConfig
	// Reachable is true while status probes succeed. A node whose probe
	// fails — or whose packet connection dies under the router — is
	// unreachable until the next successful probe.
	Reachable bool
	// Status is the last successfully parsed STATUS snapshot; zero until
	// the first probe lands.
	Status ingest.NodeStatus
	// LastSeen is when Status was captured.
	LastSeen time.Time
	// ConsecutiveFailures counts probe failures since the last success;
	// it drives the probe backoff.
	ConsecutiveFailures int
	// LastErr is the most recent probe error, nil after a success.
	LastErr error
	// Metrics is the node's last structured metrics snapshot, fetched
	// alongside each successful status probe. Nil until one lands — and
	// forever nil for nodes that predate the METRICS admin verb, which is
	// why probing tolerates its absence.
	Metrics *ops.NodeMetrics
}

// Available reports whether the router may route new packets to the node:
// it must be reachable and its ingest FSM healthy. Degraded, draining,
// and stopped nodes all fall to the routing policy.
func (h NodeHealth) Available() bool {
	return h.Reachable && h.Status.State == ingest.StateHealthy
}

// ProbeConfig tunes health probing.
type ProbeConfig struct {
	// Interval is the poll period per node while probes succeed. Zero
	// defaults to 500ms.
	Interval time.Duration
	// Timeout bounds one probe's dial+read. Zero defaults to 2s.
	Timeout time.Duration
	// BackoffBase is the extra delay after the first consecutive probe
	// failure, doubling per failure up to BackoffMax — an unreachable
	// node is polled more gently than a healthy one. Zero defaults to
	// Interval (so the first retry waits ~2 intervals); BackoffMax zero
	// defaults to 8s.
	BackoffBase time.Duration
	// BackoffMax caps the failure backoff.
	BackoffMax time.Duration
	// Seed drives the backoff jitter that decorrelates probe storms when
	// several nodes vanish at once.
	Seed int64
}

func (c ProbeConfig) interval() time.Duration {
	if c.Interval <= 0 {
		return 500 * time.Millisecond
	}
	return c.Interval
}

func (c ProbeConfig) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 2 * time.Second
	}
	return c.Timeout
}

func (c ProbeConfig) backoffBase() time.Duration {
	if c.BackoffBase <= 0 {
		return c.interval()
	}
	return c.BackoffBase
}

func (c ProbeConfig) backoffMax() time.Duration {
	if c.BackoffMax <= 0 {
		return 8 * time.Second
	}
	return c.BackoffMax
}

// ProbeStatus fetches and parses one STATUS snapshot from a node's status
// listener.
func ProbeStatus(statusAddr string, timeout time.Duration) (ingest.NodeStatus, error) {
	c, err := net.DialTimeout("tcp", statusAddr, timeout)
	if err != nil {
		return ingest.NodeStatus{}, err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(timeout))
	// Ask explicitly: a server speaking the command protocol answers
	// immediately instead of waiting out its legacy-probe grace period.
	// Old servers dump regardless of what arrives, so this is harmless.
	_, _ = c.Write([]byte("STATUS\n"))
	doc, err := io.ReadAll(c)
	if err != nil {
		return ingest.NodeStatus{}, err
	}
	return ingest.ParseStatusLine(string(doc))
}

// healthView is one immutable generation of the health table. Neither the
// map nor the NodeHealth values it points at change once published, so
// routing reads it without a lock or a copy.
type healthView map[string]*NodeHealth

// available reports whether name is known and routable.
func (v healthView) available(name string) bool {
	h := v[name]
	return h != nil && h.Available()
}

// prober polls every node's status listener on its own goroutine,
// maintaining the shared health table and waking routing waiters whenever
// a node's availability may have changed.
type prober struct {
	cfg ProbeConfig

	// health is the current table. Writers replace it under mu (publish);
	// readers load it (view).
	health atomic.Pointer[healthView]

	mu      sync.Mutex
	rng     *rand.Rand
	changed chan struct{} // closed and replaced on every update
	stop    chan struct{}
	wg      sync.WaitGroup
}

func newProber(cfg ProbeConfig, nodes []NodeConfig) *prober {
	p := &prober{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		changed: make(chan struct{}),
		stop:    make(chan struct{}),
	}
	v := make(healthView, len(nodes))
	for _, n := range nodes {
		v[n.Name] = &NodeHealth{Config: n}
	}
	p.health.Store(&v)
	return p
}

// view returns the current health table. The caller must not modify it.
func (p *prober) view() healthView { return *p.health.Load() }

// publish swaps in a table that differs from the current one in name's
// entry only (h nil removes it) and wakes routing waiters. Called with mu
// held.
func (p *prober) publish(name string, h *NodeHealth) {
	old := p.view()
	next := make(healthView, len(old)+1)
	for n, e := range old {
		next[n] = e
	}
	if h == nil {
		delete(next, name)
	} else {
		next[name] = h
	}
	p.health.Store(&next)
	close(p.changed)
	p.changed = make(chan struct{})
}

func (p *prober) start() {
	for name := range p.view() {
		p.wg.Add(1)
		go p.run(name)
	}
}

func (p *prober) close() {
	close(p.stop)
	p.wg.Wait()
}

// run is one node's probe loop: poll, record, sleep the interval (plus
// failure backoff with jitter), repeat until the prober closes.
func (p *prober) run(name string) {
	defer p.wg.Done()
	for {
		p.probeOnce(name)
		h := p.view()[name]
		if h == nil {
			// Node removed from the cluster: this loop is done.
			return
		}
		delay := p.cfg.interval()
		if h.ConsecutiveFailures > 0 {
			b := p.cfg.backoffBase()
			for i := 1; i < h.ConsecutiveFailures && b < p.cfg.backoffMax(); i++ {
				b *= 2
			}
			if b > p.cfg.backoffMax() {
				b = p.cfg.backoffMax()
			}
			// Jitter up to half the backoff so recovering nodes are not
			// hammered by synchronized probes.
			p.mu.Lock()
			b += time.Duration(p.rng.Int63n(int64(b)/2 + 1))
			p.mu.Unlock()
			delay += b
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-p.stop:
			t.Stop()
			return
		}
	}
}

// probeOnce polls one node and folds the result into the health table.
func (p *prober) probeOnce(name string) {
	h := p.view()[name]
	if h == nil {
		return
	}
	cfg := h.Config

	status, err := ProbeStatus(cfg.StatusAddr, p.cfg.timeout())
	// Piggyback a metrics fetch on a healthy probe. Failure is tolerated —
	// an old node answers METRICS with an error line — and leaves the last
	// snapshot standing rather than blanking the federated view.
	var metrics *ops.NodeMetrics
	if err == nil {
		metrics, _ = ops.ProbeMetrics(cfg.StatusAddr, p.cfg.timeout())
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	h = p.view()[name]
	if h == nil || h.Config != cfg {
		return // node replaced mid-probe (UpdateNode); discard the stale result
	}
	next := *h
	if err != nil {
		next.Reachable = false
		next.ConsecutiveFailures++
		next.LastErr = err
	} else {
		next.Reachable = true
		next.ConsecutiveFailures = 0
		next.LastErr = nil
		next.Status = status
		next.LastSeen = time.Now()
		if metrics != nil {
			next.Metrics = metrics
		}
	}
	p.publish(name, &next)
}

// snapshot returns a copy of one node's health.
func (p *prober) snapshot(name string) (NodeHealth, bool) {
	h := p.view()[name]
	if h == nil {
		return NodeHealth{}, false
	}
	return *h, true
}

// changeCh returns the channel closed at the next health change.
func (p *prober) changeCh() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.changed
}

// markUnreachable flags a node down immediately (a failed packet Send is
// fresher evidence than the last probe) and wakes waiters. The next
// successful probe restores it.
func (p *prober) markUnreachable(name string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.view()[name]
	if h == nil || !h.Reachable {
		return
	}
	next := *h
	next.Reachable = false
	next.LastErr = fmt.Errorf("cluster: send to %s failed: %w", name, err)
	p.publish(name, &next)
}

// addNode registers a new node and, when started is true, spawns its
// probe loop. Registering a present name is an error.
func (p *prober) addNode(cfg NodeConfig, started bool) error {
	p.mu.Lock()
	if p.view()[cfg.Name] != nil {
		p.mu.Unlock()
		return fmt.Errorf("cluster: node %q already probed", cfg.Name)
	}
	p.publish(cfg.Name, &NodeHealth{Config: cfg})
	p.mu.Unlock()
	if started {
		p.wg.Add(1)
		go p.run(cfg.Name)
	}
	return nil
}

// removeNode drops a node from the health table; its probe loop exits at
// its next iteration. Removing an absent node is a no-op.
func (p *prober) removeNode(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.view()[name] != nil {
		p.publish(name, nil)
	}
}

// updateNode swaps a node's addresses (checkpoint handoff to a successor
// process): health resets to unreachable-until-probed and waiters wake so
// requeued packets retry promptly.
func (p *prober) updateNode(cfg NodeConfig) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.view()[cfg.Name]
	if h == nil {
		return fmt.Errorf("cluster: unknown node %q", cfg.Name)
	}
	p.publish(cfg.Name, &NodeHealth{Config: cfg, LastSeen: h.LastSeen})
	return nil
}
