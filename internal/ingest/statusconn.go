package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"iustitia/internal/flow"
	"iustitia/internal/persist"
)

// This file is the command side of the status listener plus the quiesced
// node-checkpoint machinery behind it. A status connection speaks a tiny
// line protocol:
//
//	STATUS                  → the plain-text dump (also served to a client
//	                          that writes nothing — the legacy probe path)
//	EXPORT <lo-hi[,lo-hi]>  → quiesce, remove every flow whose hash point
//	                          falls in one of the inclusive hex ranges,
//	                          reply "BLOB <n>\n" + a KindMigration frame
//	IMPORT <n>              → read n bytes of KindMigration frame, install
//	                          the flows, reply "OK imported=<k>"
//
// EXPORT/IMPORT are the two halves of a flow-table migration: the cluster
// router points them at the losing and gaining node when a hash arc moves.

const (
	// statusCmdTimeout is how long the server waits for a command line
	// before treating the connection as a legacy dump-only probe.
	statusCmdTimeout = 300 * time.Millisecond
	// statusIOTimeout bounds the dump write and command replies.
	statusIOTimeout = 5 * time.Second
	// statusBlobTimeout bounds one migration blob transfer.
	statusBlobTimeout = 30 * time.Second
	// maxMigrationBlob bounds the declared IMPORT length.
	maxMigrationBlob = 256 << 20
)

// EncodeNodeCheckpoint assembles a persist.KindNodeCheckpoint payload:
// the delivery-sequence watermark the checkpoint covers, the engine's
// parallel checkpoint, and the pending (mid-buffer) flows. Frame it with
// persist.SaveFile under persist.KindNodeCheckpoint.
func EncodeNodeCheckpoint(seq uint64, engineCkpt, pending []byte) []byte {
	var enc persist.Encoder
	enc.U64(seq)
	enc.Blob(engineCkpt)
	enc.Blob(pending)
	return enc.Bytes()
}

// DecodeNodeCheckpoint splits a payload written by EncodeNodeCheckpoint.
func DecodeNodeCheckpoint(payload []byte) (seq uint64, engineCkpt, pending []byte, err error) {
	d := persist.NewDecoder(payload)
	seq = d.U64()
	engineCkpt = d.Blob()
	pending = d.Blob()
	if err := d.Finish(); err != nil {
		return 0, nil, nil, fmt.Errorf("ingest: node checkpoint: %w", err)
	}
	return seq, engineCkpt, pending, nil
}

// quiesce pauses frame intake and drains every admitted packet through
// the engine, so the caller observes a state that exactly covers the
// current seenSeq watermark. The returned release func resumes intake;
// on timeout intake is resumed and an error returned.
func (s *Server) quiesce(timeout time.Duration) (release func(), err error) {
	s.gate.Lock()
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		admitted := s.admitted
		s.mu.Unlock()
		inFlight := int64(admitted) - s.processed.Load()
		if inFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			s.gate.Unlock()
			return nil, fmt.Errorf("ingest: quiesce timed out after %s (%d packets in flight)", timeout, inFlight)
		}
		time.Sleep(time.Millisecond)
	}
	return s.gate.Unlock, nil
}

// CheckpointNow performs one quiesced node checkpoint: pause intake,
// drain, capture {watermark, engine checkpoint, pending flows}, resume,
// then hand the payload to the NodeCheckpoint hook. The acked_seq
// watermark advances only when the hook reports success, so a router's
// replay journal is never trimmed past what is actually durable.
func (s *Server) CheckpointNow() error {
	if s.cfg.NodeCheckpoint == nil {
		return errors.New("ingest: no NodeCheckpoint hook configured")
	}
	release, err := s.quiesce(s.cfg.QuiesceTimeout)
	if err != nil {
		return err
	}
	s.mu.Lock()
	seq := s.seenSeq
	s.mu.Unlock()
	payload := EncodeNodeCheckpoint(seq, s.cfg.Engine.ExportCheckpoint(), s.cfg.Engine.ExportPending())
	release()
	if err := s.cfg.NodeCheckpoint(payload); err != nil {
		return fmt.Errorf("ingest: node checkpoint hook: %w", err)
	}
	s.mu.Lock()
	if seq > s.ackedSeq {
		s.ackedSeq = seq
	}
	s.mu.Unlock()
	return nil
}

// checkpointLoop drives periodic node checkpoints until the drain stops
// it. A failed attempt (quiesce timeout under crash-loop, hook error) is
// skipped — the watermark simply does not advance, and the STATUS line's
// checkpoint age shows the stall.
func (s *Server) checkpointLoop() {
	defer s.ckptWG.Done()
	t := time.NewTicker(s.cfg.NodeCheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = s.CheckpointNow()
		case <-s.ckptStop:
			return
		}
	}
}

// serveStatusConn handles one status connection: read an optional command
// line, default to the plain dump.
func (s *Server) serveStatusConn(c net.Conn) {
	defer s.statusWG.Done()
	defer c.Close()
	_ = c.SetReadDeadline(time.Now().Add(statusCmdTimeout))
	br := bufio.NewReader(c)
	line, err := br.ReadString('\n')
	_ = c.SetWriteDeadline(time.Now().Add(statusIOTimeout))
	fields := strings.Fields(line)
	if err != nil || len(fields) == 0 || strings.EqualFold(fields[0], "STATUS") {
		// A command-less connection (legacy probe, curl) gets the dump.
		_, _ = c.Write([]byte(s.StatusText()))
		return
	}
	verb := strings.ToUpper(fields[0])
	switch verb {
	case "EXPORT":
		s.handleExport(c, fields[1:])
	case "IMPORT":
		s.handleImport(br, c, fields[1:])
	default:
		if s.cfg.AdminHandler != nil && s.cfg.AdminHandler(verb, fields[1:], br, c) {
			return
		}
		fmt.Fprintf(c, "ERR unknown command %q\n", fields[0])
	}
}

// handleExport quiesces, removes every flow in the requested hash ranges,
// and streams the migration frame. If the write back fails the flows are
// re-installed locally: better a stale copy on the loser than none in the
// cluster.
func (s *Server) handleExport(c net.Conn, args []string) {
	if len(args) != 1 {
		fmt.Fprintf(c, "ERR EXPORT wants exactly one range list\n")
		return
	}
	pred, err := parseRangePred(args[0])
	if err != nil {
		fmt.Fprintf(c, "ERR %v\n", err)
		return
	}
	release, err := s.quiesce(s.cfg.QuiesceTimeout)
	if err != nil {
		fmt.Fprintf(c, "ERR %v\n", err)
		return
	}
	payload := s.cfg.Engine.ExportFlows(pred)
	release()
	frame := persist.Encode(persist.KindMigration, payload)
	_ = c.SetWriteDeadline(time.Now().Add(statusBlobTimeout))
	if _, err := fmt.Fprintf(c, "BLOB %d\n", len(frame)); err == nil {
		_, err = c.Write(frame)
	}
	if err != nil {
		// The gaining node never got the blob; put the flows back.
		_, _ = s.cfg.Engine.ImportFlows(payload)
	}
}

// handleImport reads a migration frame of the declared length and
// installs its flows.
func (s *Server) handleImport(br *bufio.Reader, c net.Conn, args []string) {
	if len(args) != 1 {
		fmt.Fprintf(c, "ERR IMPORT wants exactly one length\n")
		return
	}
	n, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil || n < 0 || n > maxMigrationBlob {
		fmt.Fprintf(c, "ERR bad IMPORT length %q\n", args[0])
		return
	}
	_ = c.SetReadDeadline(time.Now().Add(statusBlobTimeout))
	buf := make([]byte, n)
	_, err = io.ReadFull(br, buf)
	// Re-arm the write deadline: the one set at connection start may have
	// lapsed while a large blob streamed in, and replies written against an
	// expired deadline fail silently.
	_ = c.SetWriteDeadline(time.Now().Add(statusIOTimeout))
	if err != nil {
		fmt.Fprintf(c, "ERR read blob: %v\n", err)
		return
	}
	payload, err := persist.DecodeKind(buf, persist.KindMigration)
	if err != nil {
		fmt.Fprintf(c, "ERR %v\n", err)
		return
	}
	k, err := s.cfg.Engine.ImportFlows(payload)
	if err != nil {
		fmt.Fprintf(c, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(c, "OK imported=%d\n", k)
}

// parseRangePred parses "lo-hi[,lo-hi...]" (inclusive 64-bit hex bounds)
// into a predicate over the flow-ID hash point — the same first-8-bytes
// reduction the cluster ring places flows with.
func parseRangePred(spec string) (func(flow.ID) bool, error) {
	type span struct{ lo, hi uint64 }
	var spans []span
	for _, part := range strings.Split(spec, ",") {
		lo, hi, ok := strings.Cut(part, "-")
		if !ok {
			return nil, fmt.Errorf("ingest: bad range %q (want lo-hi)", part)
		}
		l, err := strconv.ParseUint(lo, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("ingest: bad range bound %q: %v", lo, err)
		}
		h, err := strconv.ParseUint(hi, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("ingest: bad range bound %q: %v", hi, err)
		}
		if l > h {
			return nil, fmt.Errorf("ingest: inverted range %q", part)
		}
		spans = append(spans, span{l, h})
	}
	if len(spans) == 0 {
		return nil, errors.New("ingest: empty range list")
	}
	return func(id flow.ID) bool {
		p := binary.BigEndian.Uint64(id[:8])
		for _, sp := range spans {
			if p >= sp.lo && p <= sp.hi {
				return true
			}
		}
		return false
	}, nil
}
