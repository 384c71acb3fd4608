package main

// sut.go is the single adapter through which the benchmark touches the
// system under test. No other file in this directory imports an
// iustitia/internal/... package (sut_test.go enforces it), so this file is
// the complete list of system surface the benchmark depends on:
//
//	packet     Packet, FiveTuple, Transport, Flags, AppendWire, DecodeWire
//	corpus     Class, File, NumClasses, NewGenerator(...).Pool
//	core       Train (KindCART, KindSVM, MethodPrefix), PhiPrimeCART, AllWidths
//	ml/cart    Config ; ml/svm Config, RBF
//	entropy    VectorAt
//	entest     SketchCC, StreamConfig, NewStreamVectorConfig
//	appheader  Strip, Unknown
//	flow       Classifier, VectorClassifier, EngineConfig, StreamConfig,
//	           FaultPolicy, CDBConfig, NewParallelEngine (Process, Stats,
//	           Label, FlushAll), NewCDB (Insert, Lookup, Close), IDOf
//	ingest     Config (PreProcess hook), NewServer (Start, Shutdown, Stats),
//	           ClientConfig, NewClient (SendSeq, Close), AppendFrameSeq,
//	           NewFrameReader (Next)
//	cluster    RouterConfig, NodeConfig, ProbeConfig, PolicyRequeue,
//	           NewRouter (Start, Shutdown, Stats, Health), NewRing (Add,
//	           Owner), PointOfTuple
//
// It deliberately stays off the surface ROADMAP schedules for deletion:
// core.ReplicaSet, entropy.LegacyVectorAt, the lall sketch, version-1
// frames (AppendFrame / Client.Send), JSON model I/O and the
// StartPipeline / batch=1 drive-mode switches. Every frame the benchmark
// sends is a version-2 (sequenced) frame.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"iustitia/internal/appheader"
	"iustitia/internal/cluster"
	"iustitia/internal/core"
	"iustitia/internal/corpus"
	"iustitia/internal/entest"
	"iustitia/internal/entropy"
	"iustitia/internal/flow"
	"iustitia/internal/ingest"
	"iustitia/internal/ml/cart"
	"iustitia/internal/ml/svm"
	"iustitia/internal/packet"
)

// System types the benchmark handles by value or pointer.
type (
	Packet      = packet.Packet
	FiveTuple   = packet.FiveTuple
	Transport   = packet.Transport
	Flags       = packet.Flags
	Class       = corpus.Class
	File        = corpus.File
	Engine      = flow.ParallelEngine
	EngineStats = flow.EngineStats
	IngestStats = ingest.Stats
	RouterStats = cluster.RouterStats
	CDB         = flow.CDB
	FlowID      = flow.ID
	Ring        = cluster.Ring
	// VectorClassifier is what a trained model offers the engine: Classify
	// for buffered mode, FeatureWidths + ClassifyVector for stream mode.
	VectorClassifier = flow.VectorClassifier
)

const (
	TCP = packet.TCP
	UDP = packet.UDP

	FlagACK = packet.FlagACK
	FlagPSH = packet.FlagPSH
	FlagFIN = packet.FlagFIN
	FlagRST = packet.FlagRST

	NumClasses = corpus.NumClasses
)

// Feature-width sets the workloads train on.
var (
	widthsPhiPrimeCART = core.PhiPrimeCART
	widthsAll          = core.AllWidths
)

// Serve's and the router's flag defaults, spelled out once.
const (
	serveShards      = 4
	serveIdleFlush   = 2 * time.Second
	serveReadTimeout = 30 * time.Second
	serveIdleTimeout = 5 * time.Minute
	streamEpsilon    = 0.25
	streamDelta      = 0.25
	routerRequeue    = 10 * time.Second
	routerProbeEvery = 500 * time.Millisecond
	routerProbeWait  = 2 * time.Second
	drainTimeout     = 30 * time.Second
)

// Public functions the layer table times in isolation.
var (
	appendWire     = packet.AppendWire
	decodeWire     = packet.DecodeWire
	appendFrameSeq = ingest.AppendFrameSeq
	newFrameReader = ingest.NewFrameReader
	flowIDOf       = flow.IDOf
	vectorAt       = entropy.VectorAt
	pointOfTuple   = cluster.PointOfTuple
)

// stripHeader reports the content left after the known application
// header and whether one was recognised.
func stripHeader(payload []byte) ([]byte, bool) {
	rest, proto := appheader.Strip(payload)
	return rest, proto != appheader.Unknown
}

// newServeCDB builds a CDB purging the way serve's engine shards do.
func newServeCDB() *CDB { return flow.NewCDB(serveCDBConfig()) }

func serveCDBConfig() flow.CDBConfig {
	return flow.CDBConfig{PurgeOnClose: true, PurgeInactive: true, N: 4}
}

// newRing builds a consistent-hash ring over the named nodes at the
// router's default replica count.
func newRing(names ...string) (*Ring, error) {
	r := cluster.NewRing(0)
	for _, n := range names {
		if err := r.Add(n); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// newCorpusPool synthesises perClass files of each class, size bytes each.
func newCorpusPool(seed int64, perClass, size int) ([]File, error) {
	return corpus.NewGenerator(seed).Pool(perClass, size, size)
}

// trainModel trains the model a workload serves with: CART (or, for the
// isolated DAGSVM row, the paper's RBF SVM) on the first b bytes of each
// training file.
func trainModel(files []File, widths []int, b int, dagsvm bool) (VectorClassifier, error) {
	cfg := core.TrainConfig{
		Kind:    core.KindCART,
		Dataset: core.DatasetConfig{Widths: widths, Method: core.MethodPrefix, BufferSize: b},
		CART:    cart.Config{MinLeaf: 2},
	}
	if dagsvm {
		cfg.Kind = core.KindSVM
		cfg.SVM = svm.Config{Kernel: svm.RBF{Gamma: 50}, C: 1000, Seed: 1}
	}
	return core.Train(files, cfg)
}

// sutSpec is what a workload varies; everything else is a flag default.
type sutSpec struct {
	BufferSize        int
	StripKnownHeaders bool
	// Stream switches the engine to per-flow cc sketches.
	Stream bool
	// Routed puts cluster.Router and a second serve node in the path.
	Routed bool
}

// newStreamVector builds the per-flow sketch stream mode allocates.
func newStreamVector(widths []int, b int) (*entest.StreamVector, error) {
	return entest.NewStreamVectorConfig(entest.StreamConfig{
		Epsilon: streamEpsilon, Delta: streamDelta,
		Widths: widths, ExpectedLen: b, Kind: entest.SketchCC,
	})
}

// newEngine assembles the engine as cmd/iustitia-serve does at its flag
// defaults, with one classifier shared by every shard.
func newEngine(spec sutSpec, clf flow.Classifier, shards int) (*flow.ParallelEngine, error) {
	cfg := flow.EngineConfig{
		BufferSize:        spec.BufferSize,
		Classifier:        clf,
		StripKnownHeaders: spec.StripKnownHeaders,
		IdleFlush:         serveIdleFlush,
		Faults:            flow.FaultPolicy{Tolerate: true},
		CDB:               serveCDBConfig(),
	}
	if spec.Stream {
		cfg.Stream = &flow.StreamConfig{Epsilon: streamEpsilon, Delta: streamDelta, Sketch: entest.SketchCC}
	}
	return flow.NewParallelEngine(cfg, shards, nil)
}

// hooks are the public seams the benchmark measures through.
type hooks struct {
	// PreProcess is ingest.Config.PreProcess.
	PreProcess func(*Packet)
	// WrapListener, when non-nil, wraps every packet listener (serve nodes
	// and the router) so accepted connections can be counted.
	WrapListener func(net.Listener) net.Listener
}

// node is one in-process iustitia-serve.
type node struct {
	name   string
	engine *flow.ParallelEngine
	server *ingest.Server
	addr   string
	status string
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startNode assembles and starts one serve node on loopback TCP: 4 shards,
// 2 ingest workers, batch 64, queue 1024, overflow=block.
func startNode(name string, spec sutSpec, clf flow.Classifier, h hooks, withStatus bool) (*node, error) {
	engine, err := newEngine(spec, clf, serveShards)
	if err != nil {
		return nil, err
	}
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	n := &node{name: name, engine: engine, addr: ln.Addr().String()}
	if h.WrapListener != nil {
		ln = h.WrapListener(ln)
	}
	cfg := ingest.Config{
		Engine:      engine,
		Listeners:   []net.Listener{ln},
		ReadTimeout: serveReadTimeout,
		IdleTimeout: serveIdleTimeout,
		NodeName:    name,
		PreProcess:  h.PreProcess,
	}
	if spec.Stream {
		cfg.StreamMode = entest.SketchCC.String()
	}
	if withStatus {
		sl, err := listenLoopback()
		if err != nil {
			ln.Close()
			return nil, err
		}
		cfg.StatusListener = sl
		n.status = sl.Addr().String()
	}
	srv, err := ingest.NewServer(cfg)
	if err == nil {
		err = srv.Start()
	}
	if err != nil {
		ln.Close()
		if cfg.StatusListener != nil {
			cfg.StatusListener.Close()
		}
		return nil, err
	}
	n.server = srv
	return n, nil
}

// system is the assembled path a workload drives: one serve node, or the
// router in front of two.
type system struct {
	nodes  []*node
	router *cluster.Router
	client *ingest.Client
	seq    uint64
}

// startSystem brings the whole path up and builds the one client (which
// dials its one connection on the first send).
func startSystem(spec sutSpec, clf flow.Classifier, h hooks) (*system, error) {
	s := &system{}
	names := []string{"node"}
	if spec.Routed {
		names = []string{"a", "b"}
	}
	for _, name := range names {
		n, err := startNode(name, spec, clf, h, spec.Routed)
		if err != nil {
			s.shutdown()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
	}
	target := s.nodes[0].addr
	if spec.Routed {
		addr, err := s.startRouter(h)
		if err != nil {
			s.shutdown()
			return nil, err
		}
		target = addr
	}
	client, err := ingest.NewClient(ingest.ClientConfig{Dial: func() (net.Conn, error) {
		return net.Dial("tcp", target)
	}})
	if err != nil {
		s.shutdown()
		return nil, err
	}
	s.client = client
	return s, nil
}

// startRouter assembles cluster.Router as cmd/iustitia-router does at its
// flag defaults (policy requeue, journal 4096, 500 ms probes) and waits
// until it sees every node healthy.
func (s *system) startRouter(h hooks) (string, error) {
	ln, err := listenLoopback()
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	if h.WrapListener != nil {
		ln = h.WrapListener(ln)
	}
	cfg := cluster.RouterConfig{
		Listeners:      []net.Listener{ln},
		Policy:         cluster.PolicyRequeue,
		RequeueTimeout: routerRequeue,
		Probe:          cluster.ProbeConfig{Interval: routerProbeEvery, Timeout: routerProbeWait, Seed: 1},
		Seed:           1,
		ReadTimeout:    serveReadTimeout,
		IdleTimeout:    serveIdleTimeout,
	}
	for _, n := range s.nodes {
		cfg.Nodes = append(cfg.Nodes, cluster.NodeConfig{Name: n.name, Addr: n.addr, StatusAddr: n.status})
	}
	r, err := cluster.NewRouter(cfg)
	if err == nil {
		err = r.Start()
	}
	if err != nil {
		ln.Close()
		return "", err
	}
	s.router = r
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range s.nodes {
		for {
			if nh, ok := r.Health(n.name); ok && nh.Available() {
				break
			}
			if time.Now().After(deadline) {
				return "", fmt.Errorf("router never saw node %s healthy", n.name)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return addr, nil
}

// send delivers one packet as a sequenced frame on the one connection.
func (s *system) send(p *Packet) error {
	s.seq++
	return s.client.SendSeq(p, s.seq)
}

// shutdown closes the client, then drains the router and every node.
func (s *system) shutdown() error {
	var errs []error
	if s.client != nil {
		errs = append(errs, s.client.Close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if s.router != nil {
		errs = append(errs, s.router.Shutdown(ctx))
	}
	for _, n := range s.nodes {
		if n.server != nil {
			errs = append(errs, n.server.Shutdown(ctx))
		}
	}
	return errors.Join(errs...)
}

// label returns the verdict the system recorded for a flow, from whichever
// node owns it.
func (s *system) label(t FiveTuple) (Class, bool) {
	for _, n := range s.nodes {
		if c, ok := n.engine.Label(t); ok {
			return c, true
		}
	}
	return 0, false
}

// sysStats is every counter the system exposes, summed over nodes.
type sysStats struct {
	Ingest  IngestStats // Received, Admitted, Quarantined, Shed, EngineErrors summed
	Engine  EngineStats
	PerNode []int // packets received per node
	Router  RouterStats
	// LawsHold is true when both conservation laws balance on every node
	// (and the router's own, when there is one).
	LawsHold bool
}

func (s *system) stats() sysStats {
	st := sysStats{LawsHold: true}
	for _, n := range s.nodes {
		is, es := n.server.Stats(), n.engine.Stats()
		st.Ingest.Received += is.Received
		st.Ingest.Admitted += is.Admitted
		st.Ingest.Quarantined += is.Quarantined
		st.Ingest.Shed += is.Shed
		st.Ingest.EngineErrors += is.EngineErrors
		st.PerNode = append(st.PerNode, is.Received)
		addEngineStats(&st.Engine, es)
		if is.Received != is.Admitted+is.Quarantined+is.Shed ||
			es.Admitted != es.Classified+es.Fallback+es.Dropped+es.Pending {
			st.LawsHold = false
		}
	}
	if s.router != nil {
		st.Router = s.router.Stats()
		r := st.Router
		if r.Received != r.Forwarded+r.Quarantined+r.Shed {
			st.LawsHold = false
		}
	}
	return st
}

// admitted is packets handed to worker queues so far, summed over nodes;
// the caller subtracts its PreProcess count to get the queue depth.
func (s *system) admitted() int {
	n := 0
	for _, nd := range s.nodes {
		n += nd.server.Stats().Admitted
	}
	return n
}

// pending is flows currently buffering, summed over nodes.
func (s *system) pending() int {
	n := 0
	for _, nd := range s.nodes {
		n += nd.engine.Stats().Pending
	}
	return n
}

// addEngineStats sums the engine counters the benchmark reads.
func addEngineStats(a *EngineStats, s EngineStats) {
	a.Pending += s.Pending
	a.Classified += s.Classified
	for c := range a.QueueCounts {
		a.QueueCounts[c] += s.QueueCounts[c]
	}
	a.Admitted += s.Admitted
	a.Evicted += s.Evicted
	a.Dropped += s.Dropped
	a.Fallback += s.Fallback
}
