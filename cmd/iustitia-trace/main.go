// Command iustitia-trace generates a synthetic gateway packet trace and
// prints its shape statistics (the Figure 9 CDFs plus flow composition) so
// the substrate can be inspected and tuned independently of classification.
//
// Usage:
//
//	iustitia-trace -flows 5000 -seed 7
//
// The -chaos-* flags deterministically perturb the trace (packet drops,
// duplicates, reorders) before it is written, producing adversarial
// workloads for overload and fault-tolerance testing:
//
//	iustitia-trace -flows 5000 -chaos-drop 0.02 -chaos-reorder 0.1 -out stress.trace
//
// With -connect (TCP) or -connect-unix the trace is streamed as framed
// packets to a running iustitia-serve daemon, reconnecting and resending
// on transport failures:
//
//	iustitia-trace -flows 2000 -connect 127.0.0.1:9301 -pace 100us
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/flow"
	"iustitia/internal/ingest"
	"iustitia/internal/packet"
	"iustitia/internal/pcap"
	"iustitia/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "iustitia-trace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		flows    = flag.Int("flows", 2000, "number of data flows")
		seed     = flag.Int64("seed", 1, "generation seed")
		duration = flag.Duration("duration", 80*time.Second, "virtual capture duration")
		udp      = flag.Float64("udp", 0.2, "UDP flow fraction")
		headers  = flag.Float64("http-headers", 0.3, "fraction of flows with an HTTP header")
		out      = flag.String("out", "", "write the trace to this file (replayable with iustitia-classify -replay)")
		in       = flag.String("in", "", "read a previously written trace instead of generating one")
		pcapOut  = flag.String("pcap", "", "also export the trace as a libpcap capture (tcpdump/Wireshark readable)")

		chaosDrop    = flag.Float64("chaos-drop", 0, "drop this fraction of packets (overload/loss stress)")
		chaosDup     = flag.Float64("chaos-dup", 0, "duplicate this fraction of packets")
		chaosReorder = flag.Float64("chaos-reorder", 0, "displace this fraction of packets out of timestamp order")
		chaosSeed    = flag.Int64("chaos-seed", 1, "fault-injection seed")

		connect     = flag.String("connect", "", "stream the trace as framed packets to this iustitia-serve TCP address")
		connectUnix = flag.String("connect-unix", "", "stream the trace to this iustitia-serve unix socket")
		pace        = flag.Duration("pace", 0, "sleep between streamed packets (0 = as fast as possible)")
		retryMax    = flag.Int("retry-max", 8, "reconnect attempts per packet before giving up")
		retryWait   = flag.Duration("retry-backoff", 10*time.Millisecond, "base reconnect backoff (doubles per retry)")
	)
	flag.Parse()

	var (
		trace *packet.Trace
		err   error
	)
	start := time.Now()
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		trace, err = packet.ReadTrace(f)
		if err != nil {
			return err
		}
		fmt.Printf("loaded trace from %s\n", *in)
	} else {
		cfg := packet.DefaultTraceConfig()
		cfg.Flows = *flows
		cfg.Seed = *seed
		cfg.Duration = *duration
		cfg.UDPFraction = *udp
		cfg.HTTPHeaderFraction = *headers
		trace, err = packet.Generate(cfg, corpus.NewGenerator(*seed))
		if err != nil {
			return err
		}
	}
	if *chaosDrop > 0 || *chaosDup > 0 || *chaosReorder > 0 {
		perturbed, cs := flow.ChaosTrace(trace.Packets, flow.TraceChaosConfig{
			Seed:        *chaosSeed,
			DropRate:    *chaosDrop,
			DupRate:     *chaosDup,
			ReorderRate: *chaosReorder,
		})
		trace.Packets = perturbed
		fmt.Printf("chaos: dropped %d, duplicated %d, reordered %d packets (seed %d)\n",
			cs.Dropped, cs.Duplicated, cs.Reordered, *chaosSeed)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		n, err := trace.WriteTo(f)
		if err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%.1f MB)\n", *out, float64(n)/(1<<20))
	}
	if *pcapOut != "" {
		f, err := os.Create(*pcapOut)
		if err != nil {
			return err
		}
		if err := pcap.WriteTrace(f, trace); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("pcap capture written to %s\n", *pcapOut)
	}
	if *connect != "" || *connectUnix != "" {
		if err := streamTrace(trace, *connect, *connectUnix, *pace, *retryMax, *retryWait); err != nil {
			return err
		}
	}
	fmt.Printf("generated %d packets (%d data) across %d flows in %s\n",
		len(trace.Packets), trace.DataPackets(), len(trace.Flows),
		time.Since(start).Round(time.Millisecond))

	var (
		byClass   = map[corpus.Class]int{}
		byClose   = map[string]int{}
		headered  int
		sizes     []float64
		totalByte int
	)
	for _, info := range trace.Flows {
		byClass[info.Class]++
		switch {
		case info.ClosedBy.Has(packet.FlagFIN):
			byClose["fin"]++
		case info.ClosedBy.Has(packet.FlagRST):
			byClose["rst"]++
		default:
			byClose["open"]++
		}
		if info.HasHeader {
			headered++
		}
		totalByte += info.Bytes
	}
	for i := range trace.Packets {
		if trace.Packets[i].IsData() {
			sizes = append(sizes, float64(len(trace.Packets[i].Payload)))
		}
	}
	fmt.Printf("flow classes: text=%d binary=%d encrypted=%d\n",
		byClass[corpus.Text], byClass[corpus.Binary], byClass[corpus.Encrypted])
	fmt.Printf("termination: fin=%d rst=%d silent=%d; %d flows carry HTTP headers\n",
		byClose["fin"], byClose["rst"], byClose["open"], headered)
	fmt.Printf("total payload: %.1f MB\n", float64(totalByte)/(1<<20))

	cdf, err := stats.NewCDF(sizes)
	if err != nil {
		return err
	}
	fmt.Println("payload size CDF:")
	for _, x := range []float64{64, 140, 512, 1024, 1480} {
		fmt.Printf("  P(size <= %4.0f) = %.2f\n", x, cdf.At(x))
	}
	return nil
}

// streamTrace replays the trace's packets into a running ingest daemon
// through the reconnecting frame client: transient transport failures
// (resets, daemon restarts within the retry budget) cost a resend, not
// the replay.
func streamTrace(trace *packet.Trace, tcpAddr, unixPath string, pace time.Duration, retryMax int, backoff time.Duration) (err error) {
	if tcpAddr != "" && unixPath != "" {
		return fmt.Errorf("pass -connect or -connect-unix, not both")
	}
	network, addr := "tcp", tcpAddr
	if unixPath != "" {
		network, addr = "unix", unixPath
	}
	client, err := ingest.NewClient(ingest.ClientConfig{
		Dial:        func() (net.Conn, error) { return net.Dial(network, addr) },
		MaxRetries:  retryMax,
		BackoffBase: backoff,
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := client.Close(); err == nil {
			err = cerr
		}
	}()
	start := time.Now()
	for i := range trace.Packets {
		if err := client.Send(&trace.Packets[i]); err != nil {
			return fmt.Errorf("streaming packet %d/%d to %s: %w", i+1, len(trace.Packets), addr, err)
		}
		if pace > 0 {
			time.Sleep(pace)
		}
	}
	// Send only queues: the count below is true once Flush says so.
	if err := client.Flush(); err != nil {
		return fmt.Errorf("streaming %d packets to %s: %w", len(trace.Packets), addr, err)
	}
	cs := client.Stats()
	fmt.Printf("streamed %d packets to %s in %s (resent %d, reconnects %d, dial failures %d)\n",
		len(trace.Packets), addr, time.Since(start).Round(time.Millisecond),
		cs.Resent, cs.Reconnects, cs.DialFailures)
	return nil
}
