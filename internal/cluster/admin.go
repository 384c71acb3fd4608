package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file is the router's live-membership surface: AddNode/RemoveNode
// mutate the ring at runtime behind the membership gate, moving only the
// affected hash arcs' flow state (EXPORT from the loser, IMPORT into the
// gainer — the node-side halves live in ingest's status protocol), and
// the admin line protocol exposes them on the router's status listener:
//
//	ADD <name>=<addr>,<statusAddr>  → join, wait healthy, migrate arcs in
//	REMOVE <name>                   → migrate arcs out (live node) or
//	                                  replay its journal (dead node), leave
//	LIST                            → one line per node + ring membership
//
// A migration runs with the gate held exclusively: routing pauses (held
// packets stall on the gate, clients feel TCP backpressure) so no packet
// for a moving arc lands on the loser after its state is exported.

// migrationIOTimeout bounds one EXPORT/IMPORT blob transfer.
const migrationIOTimeout = 30 * time.Second

// ParseNodeSpec parses the "name=addr,statusAddr" node syntax shared by
// the -node flag and the ADD admin verb.
func ParseNodeSpec(spec string) (NodeConfig, error) {
	name, addrs, ok := strings.Cut(spec, "=")
	if !ok {
		return NodeConfig{}, fmt.Errorf("cluster: node spec %q (want name=addr,statusAddr)", spec)
	}
	addr, statusAddr, ok := strings.Cut(addrs, ",")
	if !ok || name == "" || addr == "" || statusAddr == "" {
		return NodeConfig{}, fmt.Errorf("cluster: node spec %q (want name=addr,statusAddr)", spec)
	}
	return NodeConfig{Name: name, Addr: addr, StatusAddr: statusAddr}, nil
}

// AddNode joins a node to the live cluster: start probing it, wait for it
// to become available, move the arcs it gains (with their flow state)
// from the current owners, then publish the new ring. On failure the
// cluster is left exactly as it was.
func (r *Router) AddNode(cfg NodeConfig) error {
	if cfg.Name == "" || cfg.Addr == "" || cfg.StatusAddr == "" {
		return fmt.Errorf("cluster: node %+v needs name, addr, and status addr", cfg)
	}
	r.member.RLock()
	_, exists := r.ring.nodes[cfg.Name]
	r.member.RUnlock()
	if exists {
		return fmt.Errorf("%w: %q", ErrNodeExists, cfg.Name)
	}
	if err := r.probes.addNode(cfg, true); err != nil {
		return err
	}
	deadline := time.Now().Add(r.adminTimeout())
	// Wait for availability before taking the gate: a node that never
	// comes up must not stall routing for the whole admin timeout.
	if err := r.awaitAvailable(cfg.Name, deadline); err != nil {
		r.probes.removeNode(cfg.Name)
		return fmt.Errorf("cluster: add %s: %w", cfg.Name, err)
	}

	r.member.Lock()
	defer r.member.Unlock()
	after := r.ring.Clone()
	if err := after.Add(cfg.Name); err != nil {
		r.probes.removeNode(cfg.Name)
		return err
	}
	r.senders[cfg.Name] = r.newSender(cfg.Name)
	if err := r.migrateArcs(ArcsMoved(r.ring, after), deadline); err != nil {
		delete(r.senders, cfg.Name)
		r.probes.removeNode(cfg.Name)
		return fmt.Errorf("cluster: add %s: %w", cfg.Name, err)
	}
	r.ring = after
	r.mu.Lock()
	r.nodesAdded++
	r.mu.Unlock()
	return nil
}

// RemoveNode removes a node from the live cluster. A live node's flow
// state migrates to the nodes gaining its arcs first — and its journal
// is dropped, because replaying packets whose effects just moved would
// double-count them. A dead node's arcs fall to its successors with no
// state to export (counted in MigrationsSkipped), and its journal is
// replayed through the new ring with fresh sequences so its unacked
// packets are not lost with it. Removing an unknown node is a no-op;
// removing the last node is refused.
func (r *Router) RemoveNode(name string) error {
	r.member.Lock()
	defer r.member.Unlock()
	if _, ok := r.ring.nodes[name]; !ok {
		return nil
	}
	if r.ring.Len() == 1 {
		return fmt.Errorf("cluster: refusing to remove the last node %q", name)
	}
	after := r.ring.Clone()
	after.Remove(name)
	deadline := time.Now().Add(r.adminTimeout())
	h, _ := r.probes.snapshot(name)
	live := h.Available()
	s := r.senders[name]
	if live {
		if err := r.migrateArcs(ArcsMoved(r.ring, after), deadline); err != nil {
			return fmt.Errorf("cluster: remove %s: %w", name, err)
		}
		if s != nil {
			s.mu.Lock()
			s.journal.drain()
			s.pendingReplay = false
			s.mu.Unlock()
		}
	} else {
		r.mu.Lock()
		r.migrationsSkipped++
		r.mu.Unlock()
	}
	r.ring = after
	delete(r.senders, name)
	r.probes.removeNode(name)
	var orphans []journalEntry
	if s != nil {
		s.mu.Lock()
		orphans = s.journal.drain()
		s.mu.Unlock()
		_ = s.closeConn() // a dead node fails the flush; its frames are the orphans
	}
	if !live && len(orphans) > 0 {
		r.replayAcross(orphans)
	}
	r.mu.Lock()
	r.nodesRemoved++
	r.mu.Unlock()
	return nil
}

// awaitAvailable blocks until the node's probe reports it available.
func (r *Router) awaitAvailable(name string, deadline time.Time) error {
	for {
		ch := r.probes.changeCh()
		h, ok := r.probes.snapshot(name)
		if ok && h.Available() {
			return nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			err := fmt.Errorf("node %q not available within the admin timeout", name)
			if ok && h.LastErr != nil {
				err = fmt.Errorf("%w (last probe: %v)", err, h.LastErr)
			}
			return err
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		case <-r.force:
			t.Stop()
			return errors.New("router draining")
		}
	}
}

func (r *Router) adminTimeout() time.Duration {
	if r.cfg.AdminTimeout <= 0 {
		return 10 * time.Second
	}
	return r.cfg.AdminTimeout
}

// migrateArcs moves the flow state behind every moved arc from its losing
// node to its gaining node, grouped per (loser, gainer) pair so each pair
// costs one EXPORT/IMPORT round trip. Called with the membership gate
// held exclusively.
func (r *Router) migrateArcs(moved []MovedArc, deadline time.Time) error {
	type pair struct{ from, to string }
	groups := make(map[pair][]MovedArc)
	var order []pair
	for _, a := range moved {
		p := pair{a.From, a.To}
		if _, ok := groups[p]; !ok {
			order = append(order, p)
		}
		groups[p] = append(groups[p], a)
	}
	for _, p := range order {
		if err := r.migratePair(p.from, p.to, groups[p], deadline); err != nil {
			return err
		}
	}
	return nil
}

// migratePair quiesces the loser (waits until it has consumed everything
// the router delivered), exports the moved ranges, and imports them into
// the gainer. An import failure rolls the blob back into the loser so the
// flows stay somewhere.
func (r *Router) migratePair(from, to string, arcs []MovedArc, deadline time.Time) error {
	fromH, ok := r.probes.snapshot(from)
	if !ok || !fromH.Available() {
		// Loser gone or down: nothing exportable; the arcs move cold.
		r.mu.Lock()
		r.migrationsSkipped++
		r.mu.Unlock()
		return nil
	}
	toH, ok := r.probes.snapshot(to)
	if !ok {
		return fmt.Errorf("unknown migration target %q", to)
	}
	if s := r.senders[from]; s != nil {
		s.mu.Lock()
		err := s.flushLocked()
		want := s.lastDelivered
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("quiesce %s: %w", from, err)
		}
		if err := awaitSeen(fromH.Config.StatusAddr, want, r.cfg.Probe.timeout(), deadline); err != nil {
			return fmt.Errorf("quiesce %s: %w", from, err)
		}
	}
	frame, err := exportFlows(fromH.Config.StatusAddr, rangeSpec(arcs))
	if err != nil {
		return fmt.Errorf("export from %s: %w", from, err)
	}
	n, err := importFlows(toH.Config.StatusAddr, frame)
	if err != nil {
		if _, rerr := importFlows(fromH.Config.StatusAddr, frame); rerr != nil {
			err = errors.Join(err, fmt.Errorf("rollback into %s: %w", from, rerr))
		}
		return fmt.Errorf("import into %s: %w", to, err)
	}
	r.mu.Lock()
	r.migratedFlows += n
	r.mu.Unlock()
	return nil
}

// awaitSeen polls a node's STATUS line until its delivery-sequence
// watermark reaches want — i.e. every packet the router delivered has
// been counted into the node's state.
func awaitSeen(statusAddr string, want uint64, probeTimeout time.Duration, deadline time.Time) error {
	for {
		ns, err := ProbeStatus(statusAddr, probeTimeout)
		if err == nil && ns.SeenSeq >= want {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("watermark wait: %w", err)
			}
			return fmt.Errorf("watermark %d short of %d at the admin timeout", ns.SeenSeq, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// rangeSpec renders moved arcs as the EXPORT verb's inclusive hex ranges.
func rangeSpec(arcs []MovedArc) string {
	var b strings.Builder
	for i, a := range arcs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%x-%x", a.Lo, a.Hi)
	}
	return b.String()
}

// exportFlows asks a node's status listener for the flows in the given
// ranges, returning the opaque KindMigration frame (CRC-checked by the
// importing node).
func exportFlows(statusAddr, spec string) ([]byte, error) {
	c, err := net.DialTimeout("tcp", statusAddr, migrationIOTimeout)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(migrationIOTimeout))
	if _, err := fmt.Fprintf(c, "EXPORT %s\n", spec); err != nil {
		return nil, err
	}
	br := bufio.NewReader(c)
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(line)
	if len(fields) != 2 || fields[0] != "BLOB" {
		return nil, fmt.Errorf("export reply %q", strings.TrimSpace(line))
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("export blob length %q", fields[1])
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(br, frame); err != nil {
		return nil, err
	}
	return frame, nil
}

// importFlows hands a migration frame to a node's status listener and
// returns how many flows landed.
func importFlows(statusAddr string, frame []byte) (int, error) {
	c, err := net.DialTimeout("tcp", statusAddr, migrationIOTimeout)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(migrationIOTimeout))
	if _, err := fmt.Fprintf(c, "IMPORT %d\n", len(frame)); err != nil {
		return 0, err
	}
	if _, err := c.Write(frame); err != nil {
		return 0, err
	}
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(line)
	if len(fields) == 2 && fields[0] == "OK" {
		if _, v, ok := strings.Cut(fields[1], "="); ok {
			if n, err := strconv.Atoi(v); err == nil {
				return n, nil
			}
		}
	}
	return 0, fmt.Errorf("import reply %q", strings.TrimSpace(line))
}

// ListNodes returns the router's view of every probed node, sorted by
// name, plus whether each is on the ring.
func (r *Router) ListNodes() []NodeHealth {
	health := r.probes.view()
	names := make([]string, 0, len(health))
	for n := range health {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]NodeHealth, 0, len(names))
	for _, n := range names {
		out = append(out, *health[n])
	}
	return out
}

// serveStatusConn handles one status connection: an optional command
// line, defaulting to the cluster dump (the legacy probe path).
func (r *Router) serveStatusConn(c net.Conn) {
	defer c.Close()
	_ = c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	br := bufio.NewReader(c)
	line, err := br.ReadString('\n')
	// ADD blocks on availability plus a migration; give it room.
	_ = c.SetWriteDeadline(time.Now().Add(r.adminTimeout() + migrationIOTimeout))
	fields := strings.Fields(line)
	if err != nil || len(fields) == 0 || strings.EqualFold(fields[0], "STATUS") {
		_, _ = c.Write([]byte(r.StatusText()))
		return
	}
	switch strings.ToUpper(fields[0]) {
	case "ADD":
		if len(fields) != 2 {
			fmt.Fprintf(c, "ERR ADD wants name=addr,statusAddr\n")
			return
		}
		cfg, err := ParseNodeSpec(fields[1])
		if err == nil {
			err = r.AddNode(cfg)
		}
		if err != nil {
			fmt.Fprintf(c, "ERR %v\n", err)
			return
		}
		fmt.Fprintf(c, "OK added %s\n", cfg.Name)
	case "REMOVE":
		if len(fields) != 2 {
			fmt.Fprintf(c, "ERR REMOVE wants a node name\n")
			return
		}
		if err := r.RemoveNode(fields[1]); err != nil {
			fmt.Fprintf(c, "ERR %v\n", err)
			return
		}
		fmt.Fprintf(c, "OK removed %s\n", fields[1])
	case "METRICS":
		blob, err := json.Marshal(r.ClusterMetrics())
		if err != nil {
			fmt.Fprintf(c, "ERR metrics: %v\n", err)
			return
		}
		_, _ = c.Write(append(blob, '\n'))
	case "LIST":
		r.member.RLock()
		onRing := make(map[string]bool, r.ring.Len())
		for _, n := range r.ring.Nodes() {
			onRing[n] = true
		}
		r.member.RUnlock()
		nodes := r.ListNodes()
		for _, h := range nodes {
			fmt.Fprintf(c, "NODE %s addr=%s status_addr=%s ring=%t available=%t\n",
				h.Config.Name, h.Config.Addr, h.Config.StatusAddr,
				onRing[h.Config.Name], h.Available())
		}
		fmt.Fprintf(c, "OK %d nodes\n", len(nodes))
	default:
		fmt.Fprintf(c, "ERR unknown command %q\n", fields[0])
	}
}
