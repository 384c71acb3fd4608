// Package corpus synthesizes the three classes of files Iustitia
// classifies — text, binary, and encrypted — standing in for the paper's
// private pool of 90,914 real files (see DESIGN.md §4). The generators are
// deterministic given a seed and are tuned so each class occupies the same
// normalized-entropy band the paper reports: text lowest (word-structured,
// small alphabet), encrypted indistinguishable from uniform, and binary in
// between with a wide spread that overlaps both neighbours (format headers
// and string tables pull entropy down; compressed payload regions push it
// up toward the encrypted band, which is what drives the paper's
// binary<->encrypted confusion).
package corpus

import (
	"bytes"
	"compress/flate"
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"math/rand"
)

// Class identifies the content nature of a file or flow. The values double
// as machine-learning labels, so they are zero-based and dense.
type Class int

// The three content natures, in the paper's entropy order.
const (
	Text Class = iota
	Binary
	Encrypted
)

// NumClasses is the number of content natures.
const NumClasses = 3

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Text:
		return "text"
	case Binary:
		return "binary"
	case Encrypted:
		return "encrypted"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ClassNames lists the class names indexed by Class value, for table
// output.
func ClassNames() []string { return []string{"text", "binary", "encrypted"} }

// File is one synthesized corpus file.
type File struct {
	Class Class
	// Kind names the generator subtype, e.g. "html", "exe", "zip".
	Kind string
	Data []byte
}

// Generator deterministically synthesizes corpus files. It is not safe for
// concurrent use; create one per goroutine.
type Generator struct {
	rng *rand.Rand
	// deflaters holds one compressor per flate level, created on first use
	// and Reset into each compressed member's buffer, so a member does not
	// allocate a compressor's state. Reset behaves like a fresh
	// flate.NewWriter, so the bytes are the same.
	deflaters map[int]*flate.Writer
}

// NewGenerator returns a Generator seeded for reproducibility.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), deflaters: map[int]*flate.Writer{}}
}

// vocabulary is the word stock for prose synthesis; sampling it with a
// Zipf distribution yields text with the byte-level entropy of natural
// language (~4.0-4.5 bits/byte).
var vocabulary = []string{
	"the", "of", "and", "a", "to", "in", "is", "you", "that", "it",
	"he", "was", "for", "on", "are", "as", "with", "his", "they", "I",
	"at", "be", "this", "have", "from", "or", "one", "had", "by", "word",
	"but", "not", "what", "all", "were", "we", "when", "your", "can", "said",
	"there", "use", "an", "each", "which", "she", "do", "how", "their", "if",
	"will", "up", "other", "about", "out", "many", "then", "them", "these", "so",
	"some", "her", "would", "make", "like", "him", "into", "time", "has", "look",
	"two", "more", "write", "go", "see", "number", "no", "way", "could", "people",
	"my", "than", "first", "water", "been", "call", "who", "oil", "its", "now",
	"find", "long", "down", "day", "did", "get", "come", "made", "may", "part",
	"network", "packet", "flow", "entropy", "classifier", "router", "buffer",
	"protocol", "system", "traffic", "server", "client", "message", "header",
	"payload", "queue", "stream", "byte", "measure", "report",
}

// words appends n Zipf-sampled vocabulary words to buf, with sentence
// casing and punctuation, and returns the extended buffer.
func (g *Generator) words(buf []byte, n int) []byte {
	zipf := rand.NewZipf(g.rng, 1.2, 1, uint64(len(vocabulary)-1))
	sentenceLen := 0
	for i := 0; i < n; i++ {
		w := vocabulary[zipf.Uint64()]
		if sentenceLen == 0 && len(w) > 0 {
			buf = append(buf, w[0]&^0x20) // capitalize
			buf = append(buf, w[1:]...)
		} else {
			buf = append(buf, w...)
		}
		sentenceLen++
		if sentenceLen >= 6+g.rng.Intn(12) {
			buf = append(buf, '.')
			sentenceLen = 0
			if g.rng.Intn(4) == 0 {
				buf = append(buf, '\n')
			} else {
				buf = append(buf, ' ')
			}
		} else {
			buf = append(buf, ' ')
		}
	}
	return buf
}

// prose returns approximately size bytes of natural-language-like text.
func (g *Generator) prose(size int) []byte {
	buf := make([]byte, 0, size+64)
	for len(buf) < size {
		buf = g.words(buf, 32)
	}
	return buf[:size]
}

// Text synthesizes a text-class file of the given size, choosing among
// plain prose, HTML, log-file, email, and email-with-base64-attachment
// subtypes. The attachment subtype matters for fidelity: base64 bodies
// push a text file's entropy toward the binary band, producing the
// text->encrypted/binary confusion tail the paper reports.
func (g *Generator) Text(size int) File {
	kind := []string{"txt", "html", "log", "mail", "b64mail", "b64mail"}[g.rng.Intn(6)]
	var data []byte
	switch kind {
	case "html":
		data = g.htmlFile(size)
	case "log":
		data = g.logFile(size)
	case "mail":
		data = g.mailFile(size)
	case "b64mail":
		data = g.base64MailFile(size)
	default:
		data = g.prose(size)
	}
	return File{Class: Text, Kind: kind, Data: data}
}

// base64Alphabet is the standard encoding alphabet, used to synthesize
// base64-looking runs without paying for real encoding.
const base64Alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

// base64Lines appends n lines of 76-column base64-like data.
func (g *Generator) base64Lines(buf []byte, n int) []byte {
	for line := 0; line < n; line++ {
		for i := 0; i < 76; i++ {
			buf = append(buf, base64Alphabet[g.rng.Intn(64)])
		}
		buf = append(buf, '\r', '\n')
	}
	return buf
}

// base64MailFile mimics a MIME mail with a sizable base64 attachment: a
// prose body followed by an encoded part. The prose fraction is drawn per
// file, so the subtype spans from mostly-prose mail to nearly pure base64
// (which reads like armored ciphertext).
func (g *Generator) base64MailFile(size int) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "From: user%d@example.com\r\nSubject: ", g.rng.Intn(1000))
	buf.Write(g.prose(24))
	buf.WriteString("\r\nMIME-Version: 1.0\r\nContent-Type: multipart/mixed; boundary=b01\r\n\r\n--b01\r\n")
	proseFrac := 0.05 + 0.45*g.rng.Float64()
	buf.Write(g.prose(int(proseFrac * float64(size))))
	buf.WriteString("\r\n--b01\r\nContent-Transfer-Encoding: base64\r\n\r\n")
	out := buf.Bytes()
	for len(out) < size {
		out = g.base64Lines(out, 8)
	}
	return clamp(out, size)
}

func (g *Generator) htmlFile(size int) []byte {
	var buf bytes.Buffer
	buf.WriteString("<!DOCTYPE html>\n<html>\n<head><title>")
	buf.Write(g.prose(24))
	buf.WriteString("</title></head>\n<body>\n")
	for buf.Len() < size {
		buf.WriteString("<p>")
		buf.Write(g.prose(120 + g.rng.Intn(200)))
		buf.WriteString("</p>\n")
	}
	buf.WriteString("</body>\n</html>\n")
	return clamp(buf.Bytes(), size)
}

func (g *Generator) logFile(size int) []byte {
	var buf bytes.Buffer
	levels := []string{"INFO", "WARN", "ERROR", "DEBUG"}
	for buf.Len() < size {
		fmt.Fprintf(&buf, "2009-%02d-%02d %02d:%02d:%02d %s [worker-%d] ",
			1+g.rng.Intn(12), 1+g.rng.Intn(28), g.rng.Intn(24),
			g.rng.Intn(60), g.rng.Intn(60), levels[g.rng.Intn(len(levels))],
			g.rng.Intn(16))
		buf.Write(g.prose(40 + g.rng.Intn(60)))
		buf.WriteByte('\n')
	}
	return clamp(buf.Bytes(), size)
}

func (g *Generator) mailFile(size int) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "From: user%d@example.com\r\nTo: user%d@example.org\r\n",
		g.rng.Intn(1000), g.rng.Intn(1000))
	buf.WriteString("Subject: ")
	buf.Write(g.prose(32))
	buf.WriteString("\r\nMIME-Version: 1.0\r\nContent-Type: text/plain\r\n\r\n")
	for buf.Len() < size {
		buf.Write(g.prose(200))
		buf.WriteString("\r\n\r\n")
	}
	return clamp(buf.Bytes(), size)
}

// Binary synthesizes a binary-class file of the given size, choosing among
// executable-like, compressed-archive-like, image-like, and mixed-document
// subtypes.
func (g *Generator) Binary(size int) File {
	kind := []string{"exe", "zip", "img", "doc"}[g.rng.Intn(4)]
	var data []byte
	switch kind {
	case "zip":
		data = g.archiveFile(size)
	case "img":
		data = g.imageFile(size)
	case "doc":
		data = g.documentFile(size)
	default:
		data = g.executableFile(size)
	}
	return File{Class: Binary, Kind: kind, Data: data}
}

// executableFile mimics machine code plus loader structures: a magic
// header, sections of opcode-skewed bytes, an ASCII string table, and
// zero-padding runs. Section proportions are drawn per file, so the
// binary class spans a continuous band from text-heavy (string-table
// dominated) to dense code — the spread real executables show.
func (g *Generator) executableFile(size int) []byte {
	var buf bytes.Buffer
	buf.Write([]byte{0x7f, 'E', 'L', 'F', 2, 1, 1, 0})
	buf.Write(make([]byte, 56)) // header padding
	// Per-file blend: weight of string-table sections vs the rest.
	textWeight := 0.1 + 0.5*g.rng.Float64()
	for buf.Len() < size {
		r := g.rng.Float64()
		switch {
		case r < textWeight: // string table
			buf.Write(g.prose(128 + g.rng.Intn(256)))
			buf.WriteByte(0)
		case r < textWeight+(1-textWeight)*0.55: // code section
			n := 256 + g.rng.Intn(512)
			for i := 0; i < n; i++ {
				if g.rng.Intn(3) == 0 {
					// Common opcodes / small immediates dominate.
					buf.WriteByte(byte(g.rng.Intn(32)))
				} else {
					buf.WriteByte(byte(g.rng.Intn(256)))
				}
			}
		case r < textWeight+(1-textWeight)*0.8: // relocation-like records
			n := 16 + g.rng.Intn(32)
			for i := 0; i < n; i++ {
				buf.Write([]byte{byte(g.rng.Intn(256)), byte(g.rng.Intn(8)), 0, 0,
					byte(g.rng.Intn(256)), byte(g.rng.Intn(4)), 0, 0})
			}
		default: // zero padding
			buf.Write(make([]byte, 64+g.rng.Intn(192)))
		}
	}
	return clamp(buf.Bytes(), size)
}

// archiveFile mimics a ZIP-like container: small structured headers
// wrapping member data that is either DEFLATE-compressed prose or a
// *stored* already-compressed member (incompressible bytes). Stored
// members are byte-for-byte indistinguishable from ciphertext, which is
// exactly the binary<->encrypted confusion source the paper observes for
// ZIP/JPG binaries.
func (g *Generator) archiveFile(size int) []byte {
	var buf bytes.Buffer
	buf.Write([]byte{'P', 'K', 3, 4})
	for buf.Len() < size {
		fmt.Fprintf(&buf, "PK\x01\x02member%04d", g.rng.Intn(10000))
		if g.rng.Float64() < 0.30 {
			// Stored member: already-compressed content, incompressible.
			member := make([]byte, 1<<10+g.rng.Intn(3<<10))
			g.rng.Read(member)
			buf.Write(member)
			continue
		}
		member := g.prose(1<<10 + g.rng.Intn(3<<10))
		if compressed, ok := g.deflate(member, flate.BestCompression); ok {
			buf.Write(compressed)
			continue
		}
		// flate cannot realistically fail on a bytes.Buffer; fall back to
		// raw prose so the file still reaches its size.
		buf.Write(member)
	}
	return clamp(buf.Bytes(), size)
}

// deflate compresses data at level with the generator's compressor for
// that level; ok is false if flate failed.
func (g *Generator) deflate(data []byte, level int) (compressed []byte, ok bool) {
	var out bytes.Buffer
	w := g.deflaters[level]
	if w == nil {
		var err error
		if w, err = flate.NewWriter(&out, level); err != nil {
			return nil, false
		}
		g.deflaters[level] = w
	} else {
		w.Reset(&out)
	}
	if _, err := w.Write(data); err != nil || w.Close() != nil {
		return nil, false
	}
	return out.Bytes(), true
}

// imageFile mimics lossy-coded media: marker segments plus entropy-coded
// payload with a geometric-ish coefficient distribution.
func (g *Generator) imageFile(size int) []byte {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xd8, 0xff, 0xe0}) // SOI/APP0-like
	for buf.Len() < size {
		if g.rng.Intn(16) == 0 {
			buf.Write([]byte{0xff, byte(0xc0 + g.rng.Intn(16)), 0, byte(8 + g.rng.Intn(64))})
			continue
		}
		// Entropy-coded data: geometric magnitudes, frequent small values.
		v := 0
		for g.rng.Intn(3) != 0 && v < 7 {
			v++
		}
		b := byte(g.rng.Intn(1 << uint(v+1)))
		if b == 0xff {
			buf.Write([]byte{0xff, 0x00}) // byte stuffing
		} else {
			buf.WriteByte(b ^ byte(g.rng.Intn(256))&0x3f)
		}
	}
	return clamp(buf.Bytes(), size)
}

// documentFile mimics container documents (PDF/Office): text dictionaries
// interleaved with compressed object streams.
func (g *Generator) documentFile(size int) []byte {
	var buf bytes.Buffer
	buf.WriteString("%PDF-1.4\n")
	obj := 1
	// Per-file blend of dictionary text vs compressed streams.
	textFrac := 0.2 + 0.6*g.rng.Float64()
	for buf.Len() < size {
		if g.rng.Float64() < textFrac {
			fmt.Fprintf(&buf, "%d 0 obj\n<< /Type /Page /Contents %d 0 R >>\nendobj\n", obj, obj+1)
			buf.Write(g.prose(100 + g.rng.Intn(150)))
		} else {
			stream := g.prose(400 + g.rng.Intn(400))
			if compressed, ok := g.deflate(stream, flate.DefaultCompression); ok {
				fmt.Fprintf(&buf, "%d 0 obj\n<< /Filter /FlateDecode >>\nstream\n", obj)
				buf.Write(compressed)
				buf.WriteString("\nendstream\nendobj\n")
			}
		}
		obj++
	}
	return clamp(buf.Bytes(), size)
}

// Encrypted synthesizes an encrypted-class file. Most files are raw
// AES-CTR keystream — computationally indistinguishable from uniform
// bytes; about a quarter are PGP-style ASCII-armored ciphertext, whose
// base64 body drops the byte entropy into the binary band and produces
// the encrypted-class misclassification tail the paper measures for its
// PGP-generated files.
func (g *Generator) Encrypted(size int) File {
	if g.rng.Intn(8) == 0 {
		return File{Class: Encrypted, Kind: "armor", Data: g.armoredFile(size)}
	}
	key := make([]byte, 16)
	iv := make([]byte, aes.BlockSize)
	g.rng.Read(key)
	g.rng.Read(iv)
	block, err := aes.NewCipher(key)
	if err != nil {
		// aes.NewCipher cannot fail on a 16-byte key; guard anyway with a
		// uniform fallback rather than panicking in a generator.
		data := make([]byte, size)
		g.rng.Read(data)
		return File{Class: Encrypted, Kind: "prng", Data: data}
	}
	data := make([]byte, size)
	cipher.NewCTR(block, iv).XORKeyStream(data, data)
	return File{Class: Encrypted, Kind: "aes", Data: data}
}

// armoredFile mimics PGP ASCII armor as found in the wild: a variable
// amount of surrounding plain-text context (the mail or document the
// armored block is embedded in) followed by base64-coded ciphertext. The
// context fraction is drawn per file, making armored ciphertext and
// base64-attachment mail genuinely overlapping distributions — the
// text<->encrypted confusion tail of the paper's Table 1.
func (g *Generator) armoredFile(size int) []byte {
	var buf bytes.Buffer
	if contextFrac := 0.35 * g.rng.Float64(); contextFrac > 0.02 {
		buf.Write(g.prose(int(contextFrac * float64(size))))
		buf.WriteString("\r\n")
	}
	buf.WriteString("-----BEGIN PGP MESSAGE-----\r\nVersion: PGP 8.0\r\n\r\n")
	out := buf.Bytes()
	for len(out) < size {
		out = g.base64Lines(out, 8)
	}
	return clamp(out, size)
}

// File synthesizes one file of the requested class and size.
func (g *Generator) File(class Class, size int) (File, error) {
	switch class {
	case Text:
		return g.Text(size), nil
	case Binary:
		return g.Binary(size), nil
	case Encrypted:
		return g.Encrypted(size), nil
	default:
		return File{}, fmt.Errorf("corpus: unknown class %d", int(class))
	}
}

// Pool synthesizes perClass files of each class with sizes uniform in
// [minSize, maxSize], interleaved by class.
func (g *Generator) Pool(perClass, minSize, maxSize int) ([]File, error) {
	if perClass <= 0 {
		return nil, fmt.Errorf("corpus: perClass %d is not positive", perClass)
	}
	if minSize <= 0 || maxSize < minSize {
		return nil, fmt.Errorf("corpus: invalid size range [%d, %d]", minSize, maxSize)
	}
	files := make([]File, 0, perClass*NumClasses)
	for i := 0; i < perClass; i++ {
		for class := Text; class <= Encrypted; class++ {
			size := minSize
			if maxSize > minSize {
				size += g.rng.Intn(maxSize - minSize + 1)
			}
			f, err := g.File(class, size)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
	}
	return files, nil
}

// clamp trims data to exactly size bytes (generators may overshoot).
func clamp(data []byte, size int) []byte {
	if len(data) > size {
		return data[:size]
	}
	return data
}
