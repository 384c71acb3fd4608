package main

import (
	"fmt"
	"math/rand"
	"time"
)

// flowDesc describes one flow of a lap: which bytes it carries and how
// they are cut into packets. Laps reuse the descriptors with fresh
// 5-tuples, so the whole trace is never materialised.
type flowDesc struct {
	// stream is the flow's byte stream: the application header, when the
	// flow opens with one, followed by the corpus file. Header-less flows
	// alias the pool file.
	stream []byte
	truth  Class
	proto  Transport
	// closeBy is 0 when the flow just goes quiet, else FlagFIN or FlagRST;
	// closing flows end with one extra payload-less packet.
	closeBy Flags
	// cuts are the packet boundaries within stream (len = data packets+1)
	// for flows with mixed packet sizes; nil when every packet is pktSize.
	cuts    []int32
	pktSize int
	nData   int
	// cycle lets a flow longer than its stream wrap around it.
	cycle     bool
	hasHeader bool

	// Filled by the reference replay.
	ref       Class
	trigger   int    // index of the data packet that completes the buffer
	hash      uint64 // hash of what the classifier is handed for this flow
	ambiguous bool   // another flow of the lap shares hash
}

// packets is the flow's packet count, close packet included.
func (d *flowDesc) packets() int {
	if d.closeBy != 0 {
		return d.nData + 1
	}
	return d.nData
}

// payload returns data packet j's bytes, a slice of stream.
func (d *flowDesc) payload(j int) []byte {
	if d.cuts != nil {
		return d.stream[d.cuts[j]:d.cuts[j+1]]
	}
	off := j * d.pktSize
	if d.cycle {
		off %= len(d.stream) - d.pktSize + 1
	}
	return d.stream[off : off+d.pktSize]
}

// Application headers the header-bearing flows open with. The HTTP one is
// longer than a mice packet, so it exercises the engine's multi-packet
// header continuation; the SMTP exchange ends in a blank line inside the
// first packet.
func httpHeader(rng *rand.Rand, contentLength int) []byte {
	types := []string{"application/octet-stream", "image/jpeg", "text/html", "application/zip"}
	return []byte(fmt.Sprintf(
		"HTTP/1.1 200 OK\r\nServer: httpd/%d.%d\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n",
		1+rng.Intn(2), rng.Intn(10), types[rng.Intn(len(types))], contentLength))
}

func smtpHeader(rng *rand.Rand) []byte {
	return []byte(fmt.Sprintf("220 mx%d ESMTP\r\nMAIL FROM:<u%d@example.com>\r\nDATA\r\n\r\n",
		rng.Intn(10), rng.Intn(1000)))
}

// mixPayloadSize draws one packet size from the bimodal distribution of
// the UMASS-shaped trace (packet.DefaultTraceConfig's generator): 20 %
// full 1480-byte payloads, 55 % under 140 bytes, the rest in between.
func mixPayloadSize(rng *rand.Rand) int {
	const mtu = 1480
	r := rng.Float64()
	switch {
	case r < 0.20:
		return mtu
	case r < 0.75:
		return 1 + rng.Intn(139)
	default:
		return 140 + rng.Intn(mtu-140)
	}
}

// buildDescs draws one lap of flow descriptors for w over pool, one flow
// per pool file so no two flows of a lap carry the same bytes by
// construction (files that merely begin alike are handled as ambiguous
// hashes). The same (w, pool, seed) always yields the same descriptors.
func buildDescs(w *workload, pool []File, seed int64) []flowDesc {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	descs := make([]flowDesc, w.FlowsPerLap)
	for i := range descs {
		d := &descs[i]
		f := pool[i]
		d.stream, d.truth, d.proto = f.Data, f.Class, TCP
		w.shape(rng, d)
		hdrLen := 0
		if d.hasHeader {
			// The header is prepended to a private copy; the content the
			// engine classifies is still the file's first bytes.
			hdr := d.header(rng)
			hdrLen = len(hdr)
			d.stream = append(append([]byte(nil), hdr...), f.Data...)
		}
		if w.mixedSizes {
			total := w.minFlowBytes + rng.Intn(len(d.stream)-w.minFlowBytes+1)
			d.cuts = []int32{0}
			for off := 0; off < total; {
				size := mixPayloadSize(rng)
				if off+size > total {
					size = total - off
				}
				if off+size == hdrLen {
					// A packet ending exactly on the header's blank line
					// leaves the engine waiting for a terminator it already
					// consumed (the flow is never classified; see README
					// "Found while building"). Workloads must not fail, so
					// the cut moves one byte on.
					size++
				}
				off += size
				d.cuts = append(d.cuts, int32(off))
			}
			d.nData = len(d.cuts) - 1
		}
	}
	return descs
}

// header picks the application header a header-bearing flow opens with:
// two in three HTTP, one in three SMTP.
func (d *flowDesc) header(rng *rand.Rand) []byte {
	if rng.Intn(3) == 0 {
		return smtpHeader(rng)
	}
	return httpHeader(rng, len(d.stream))
}

// tupleFor derives flow number seq's 5-tuple. The odd multiplier is a
// bijection on 32 bits and its image is spread over SrcIP[1:4] and
// DstIP[3], so distinct flows of one run always get distinct tuples; the
// remaining fields are seeded noise.
func tupleFor(seed int64, seq uint64, proto Transport) FiveTuple {
	x := uint32(seq) * 0x9E3779B1
	r := splitmix64(uint64(seed) ^ seq*0xD1342543DE82EF95)
	ports := [...]uint16{80, 443, 25, 110, 143, 21, 8080, 53}
	return FiveTuple{
		SrcIP:     [4]byte{10, byte(x >> 24), byte(x >> 16), byte(x >> 8)},
		DstIP:     [4]byte{192, 168, byte(r), byte(x)},
		SrcPort:   uint16(1024 + (r>>8)%64000),
		DstPort:   ports[(r>>32)%uint64(len(ports))],
		Transport: proto,
	}
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// pktMeta is what the generator knows about the packet it just emitted.
type pktMeta struct {
	flowSeq uint64 // flow number within the run
	desc    int    // descriptor index (flowSeq modulo lap size)
	pktIdx  int64  // packet number within the run; Time = pktIdx × tick
	trigger bool   // this packet completes the flow's buffer
}

// generator streams packets: Concurrency flow slots visited round-robin,
// each slot playing one flow to its end and then opening the next flow of
// the lap sequence. Packet i carries virtual time i × tick, so the time
// the engine's purge logic sees is a function of the seed alone.
type generator struct {
	descs []flowDesc
	seed  int64
	tick  time.Duration

	slots    []genSlot
	cursor   int
	nextFlow uint64
	pktIdx   int64
	draining bool
}

type genSlot struct {
	live  bool
	delay int // rounds to sit out before the slot's first flow
	seq   uint64
	desc  int
	next  int
	tuple FiveTuple
}

func newGenerator(w *workload, descs []flowDesc, seed int64, tick time.Duration) *generator {
	g := &generator{descs: descs, seed: seed, tick: tick, slots: make([]genSlot, w.Concurrency)}
	// Stagger the slots' first flows over one flow length, so flow starts
	// (and with them classifications) are spread evenly instead of
	// arriving Concurrency at a time.
	span := descs[0].packets()
	for i := range g.slots {
		g.slots[i].delay = i * span / len(g.slots)
	}
	return g
}

// drain stops opening new flows; next keeps returning packets until every
// flow in flight has been played to its end.
func (g *generator) drain() { g.draining = true }

// flows is how many flows have been opened so far.
func (g *generator) flows() uint64 { return g.nextFlow }

// next fills p with the next packet of the stream. It reports false once
// the generator is draining and no flow is left in flight. p.Payload
// aliases descriptor memory and must not be modified.
func (g *generator) next(p *Packet) (pktMeta, bool) {
	idle := 0
	for idle < len(g.slots) {
		s := &g.slots[g.cursor]
		g.cursor++
		if g.cursor == len(g.slots) {
			g.cursor = 0
		}
		if !s.live {
			if s.delay > 0 && !g.draining {
				s.delay--
				continue // staggered start: not an idle slot, time still moves
			}
			if g.draining {
				idle++
				continue
			}
			s.seq = g.nextFlow
			g.nextFlow++
			s.desc = int(s.seq % uint64(len(g.descs)))
			s.next = 0
			s.live = true
			s.tuple = tupleFor(g.seed, s.seq, g.descs[s.desc].proto)
		}
		d := &g.descs[s.desc]
		p.Tuple = s.tuple
		p.Time = time.Duration(g.pktIdx) * g.tick
		meta := pktMeta{flowSeq: s.seq, desc: s.desc, pktIdx: g.pktIdx, trigger: s.next == d.trigger}
		if s.next < d.nData {
			p.Payload = d.payload(s.next)
			p.Flags = 0
			if d.proto == TCP {
				p.Flags = FlagACK | FlagPSH
			}
		} else {
			p.Payload = nil
			p.Flags = d.closeBy | FlagACK
			meta.trigger = false
		}
		s.next++
		if s.next == d.packets() {
			s.live = false
		}
		g.pktIdx++
		return meta, true
	}
	return pktMeta{}, false
}
