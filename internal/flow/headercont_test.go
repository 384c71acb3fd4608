package flow

import (
	"strings"
	"testing"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/packet"
)

// splitEngine builds a small-buffer engine with header stripping for the
// multi-packet header tests.
func splitEngine(t *testing.T, bufferSize int) *Engine {
	t.Helper()
	e, err := NewEngine(EngineConfig{
		BufferSize:        bufferSize,
		Classifier:        firstByteClassifier(),
		StripKnownHeaders: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestMultiPacketHTTPHeaderStripped(t *testing.T) {
	// A 3-packet HTTP response header followed by encrypted-looking
	// content; the engine must discard all header bytes and classify on
	// content.
	header := "HTTP/1.1 200 OK\r\n" +
		"Server: example\r\n" +
		"Content-Type: application/octet-stream\r\n" +
		"Content-Length: 4096\r\n" +
		"Cache-Control: no-store\r\n" +
		"\r\n"
	e := splitEngine(t, 4)
	tp := tuple(6100, packet.TCP)

	chunks := []string{header[:40], header[40:90], header[90:] + "EEEE"}
	var verdict Verdict
	var err error
	for i, chunk := range chunks {
		verdict, err = e.Process(dataPacket(tp, time.Duration(i)*time.Millisecond, chunk))
		if err != nil {
			t.Fatal(err)
		}
	}
	if !verdict.Classified || verdict.Queue != corpus.Encrypted {
		t.Errorf("verdict = %+v, want encrypted classification on content", verdict)
	}
}

func TestHeaderTerminatorSplitAcrossPackets(t *testing.T) {
	// The \r\n\r\n terminator itself straddles a packet boundary.
	e := splitEngine(t, 4)
	tp := tuple(6101, packet.TCP)
	first := "HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\n\r"
	second := "\nTTTT"
	if _, err := e.Process(dataPacket(tp, 0, first)); err != nil {
		t.Fatal(err)
	}
	v, err := e.Process(dataPacket(tp, time.Millisecond, second))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Classified || v.Queue != corpus.Text {
		t.Errorf("verdict = %+v, want text classification after split terminator", v)
	}
}

func TestRunawayHeaderGivesUp(t *testing.T) {
	// A "header" that never terminates must not swallow the flow forever:
	// after maxHeaderSpan the engine buffers raw bytes and classifies.
	e := splitEngine(t, 8)
	tp := tuple(6102, packet.TCP)
	if _, err := e.Process(dataPacket(tp, 0, "HTTP/1.1 200 OK\r\nX: y\r\n")); err != nil {
		t.Fatal(err)
	}
	junk := strings.Repeat("E", 1024)
	var v Verdict
	var err error
	for i := 0; i < 12; i++ {
		v, err = e.Process(dataPacket(tp, time.Duration(i)*time.Millisecond, junk))
		if err != nil {
			t.Fatal(err)
		}
		if v.Classified {
			break
		}
	}
	if !v.Classified {
		t.Fatal("engine never gave up on a runaway header")
	}
	if v.Queue != corpus.Encrypted {
		t.Errorf("queue = %v, want encrypted from raw buffering", v.Queue)
	}
}

func TestSinglePacketHeaderUnaffected(t *testing.T) {
	// The fast path (header completes in packet one) must be unchanged.
	e := splitEngine(t, 4)
	tp := tuple(6103, packet.TCP)
	v, err := e.Process(dataPacket(tp, 0, "HTTP/1.1 200 OK\r\n\r\nBBBB"))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Classified || v.Queue != corpus.Binary {
		t.Errorf("verdict = %+v", v)
	}
}

func TestHeaderEndsOnPacketBoundary(t *testing.T) {
	// The header's blank line is the last thing in its packet: stripping
	// leaves nothing, but the header is over, and the body that follows
	// must be classified exactly as when both arrive in one packet.
	for _, header := range []string{"HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\n", "HTTP/1.1 200 OK\n\n"} {
		e := splitEngine(t, 4)
		tp := tuple(6104, packet.TCP)
		if v, err := e.Process(dataPacket(tp, 0, header)); err != nil || v.Classified {
			t.Fatalf("header packet: verdict = %+v, err = %v; want no verdict yet", v, err)
		}
		var v Verdict
		for i, body := range []string{"BB", "BB"} {
			var err error
			v, err = e.Process(dataPacket(tp, time.Duration(i+1)*time.Millisecond, body))
			if err != nil {
				t.Fatal(err)
			}
		}
		if !v.Classified || v.Queue != corpus.Binary {
			t.Errorf("header %q: verdict = %+v, want binary classification on the body", header, v)
		}
	}
}
