package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// Encode writes the graph in a plain text format: the first line is
// "n m", followed by one "u v" line per edge, in edge-ID order.
//
// The bytes are part of the service's contract: Store.Mutate
// content-addresses a derived graph by the SHA-256 of this encoding, so
// the same graph must encode to the same bytes across versions.
func Encode(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	line := make([]byte, 0, 2*20+2) // two int64s, a space and a newline
	write := func(a, b int64) error {
		line = strconv.AppendInt(line[:0], a, 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, b, 10)
		line = append(line, '\n')
		_, err := bw.Write(line)
		return err
	}
	if err := write(int64(g.N()), int64(g.M())); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if err := write(int64(e.U), int64(e.V)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a graph in the format produced by Encode. Blank lines and
// lines starting with '#' are ignored. Any non-comment content after the
// header's m edges is an error: trailing lines almost always mean a
// mis-declared edge count or a concatenated file, and silently dropping
// them would decode a different graph than the one written.
func Decode(r io.Reader) (*Graph, error) {
	lr := newLineReader(r)
	readLine := func() bool {
		for lr.scan() {
			if len(lr.line) != 0 && lr.line[0] != '#' {
				return true
			}
		}
		return false
	}
	if !readLine() {
		return nil, fmt.Errorf("graph: missing header line")
	}
	if lr.split() != 2 {
		return nil, fmt.Errorf("graph: bad header %q", lr.line)
	}
	n, err := atoi(lr.field(0))
	if err != nil || n < 0 || n > maxHeaderCount {
		return nil, fmt.Errorf("graph: bad vertex count %q", lr.field(0))
	}
	m, err := atoi(lr.field(1))
	if err != nil || m < 0 || m > maxHeaderCount {
		return nil, fmt.Errorf("graph: bad edge count %q", lr.field(1))
	}
	// Bounded like the DIMACS/METIS decoders (see maxHeaderCount): this
	// decoder too ingests untrusted uploads via auto-detection, so a tiny
	// header must not commission a giant allocation.
	edges := make([]Edge, 0, min(m, preallocCap))
	for i := 0; i < m; i++ {
		if !readLine() {
			return nil, fmt.Errorf("graph: expected %d edges, got %d", m, i)
		}
		if lr.split() != 2 {
			return nil, fmt.Errorf("graph: bad edge line %q", lr.line)
		}
		u, err := atoi(lr.field(0))
		if err != nil {
			return nil, fmt.Errorf("graph: bad edge line %q: %w", lr.line, err)
		}
		v, err := atoi(lr.field(1))
		if err != nil {
			return nil, fmt.Errorf("graph: bad edge line %q: %w", lr.line, err)
		}
		// Range-check before the int32 cast: an endpoint >= 2^32 would
		// otherwise wrap and silently decode a different graph.
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge line %q out of range for n=%d", lr.line, n)
		}
		edges = append(edges, Edge{U: int32(u), V: int32(v)})
	}
	if readLine() {
		return nil, fmt.Errorf("graph: trailing content after %d declared edges: %q", m, lr.line)
	}
	if err := lr.sc.Err(); err != nil {
		return nil, err
	}
	return New(n, edges)
}

// lineReader is the tokenizer under the three text decoders. It reads
// lines with a bufio.Scanner and splits them in place, so a line costs
// no allocation: line and its fields alias the scanner's buffer and are
// valid until the next scan. The fields are kept as offsets, not slices,
// so splitting writes no pointers to the heap (slices paid a GC write
// barrier per field while a collection ran). Trimming and splitting
// follow strings.TrimSpace and strings.Fields exactly (ASCII spaces by
// table, any other byte decoded as a rune and tested with
// unicode.IsSpace), and atoi accepts and rejects exactly what
// strconv.Atoi does, so the decoders accept the same inputs and report
// the same errors as when they worked on strings.
type lineReader struct {
	sc     *bufio.Scanner
	lineno int
	line   []byte // the current line, trimmed like strings.TrimSpace
	spans  []span // split's fields of line, reused from line to line
}

// span is a field of the current line: line[lo:hi].
type span struct{ lo, hi int }

func newLineReader(r io.Reader) *lineReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	// spans starts with room for a METIS line of a degree-16 vertex, so
	// sparse graphs never grow it.
	return &lineReader{sc: sc, spans: make([]span, 0, 16)}
}

// scan reads the next line. It reports false at the end of the input or
// on a read error, which sc.Err returns.
func (lr *lineReader) scan() bool {
	if !lr.sc.Scan() {
		return false
	}
	lr.lineno++
	lr.line = bytes.TrimSpace(lr.sc.Bytes())
	return true
}

// asciiSpace marks the bytes below utf8.RuneSelf that unicode.IsSpace
// accepts, the table strings.Fields uses.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// split splits the current line as strings.Fields splits it and returns
// the number of fields.
func (lr *lineReader) split() int {
	lr.spans = lr.spans[:0]
	// The line is trimmed, so it starts with a field and ends with one.
	for i := 0; i < len(lr.line); {
		lo := i
		i = skip(lr.line, i, false)
		lr.spans = append(lr.spans, span{lo, i})
		i = skip(lr.line, i, true)
	}
	return len(lr.spans)
}

// skip returns the index of the first rune at or after line[i] that is
// not a space if space is true, or a space if it is false (len(line) if
// there is none). Invalid UTF-8 decodes as one byte of utf8.RuneError,
// which is not a space, as in strings.Fields.
func skip(line []byte, i int, space bool) int {
	for i < len(line) {
		if c := line[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != space {
				return i
			}
			i++
			continue
		}
		r, w := utf8.DecodeRune(line[i:])
		if unicode.IsSpace(r) != space {
			return i
		}
		i += w
	}
	return i
}

// field returns field i of the last split.
func (lr *lineReader) field(i int) []byte {
	return lr.line[lr.spans[i].lo:lr.spans[i].hi]
}

// fastDigits is the longest run of decimal digits that cannot overflow an
// int: 18 on 64-bit platforms, 9 on 32-bit ones (strconv.Atoi's own fast
// path bound).
const fastDigits = 9 * strconv.IntSize / 32

// atoi is strconv.Atoi on a field. A field of at most fastDigits plain
// digits is parsed in place; any other field (a sign, a non-digit, a
// longer number) goes to strconv.Atoi itself, so the accepted values and
// the error text stay Atoi's.
func atoi(tok []byte) (int, error) {
	if len(tok) == 0 || len(tok) > fastDigits {
		return strconv.Atoi(string(tok))
	}
	n := 0
	for _, c := range tok {
		if c < '0' || c > '9' {
			return strconv.Atoi(string(tok))
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}
