package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
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
//
// The lines go into one buffer of at most 64 KiB, written to w whenever
// it cannot hold another line; each endpoint's digits are written in
// place (appendDecimal). A w with a Grow(int) method, such as a
// bytes.Buffer, is first grown to an upper bound of the encoding's
// length, so it does not reallocate while Encode writes.
func Encode(w io.Writer, g *Graph) error {
	// Every endpoint is below n, so an edge line takes at most lineMax
	// bytes, and the header at most two int64s, a space and a newline.
	lineMax := 0
	if g.M() > 0 {
		lineMax = 2*decimalLen(uint32(min(g.N()-1, math.MaxInt32))) + 2
	}
	size := 2*20 + 2 + g.M()*lineMax
	if gw, ok := w.(interface{ Grow(int) }); ok {
		gw.Grow(size)
	}
	buf := make([]byte, 0, min(size, 1<<16))
	buf = strconv.AppendInt(buf, int64(g.N()), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(g.M()), 10)
	buf = append(buf, '\n')
	for _, e := range g.Edges() {
		if cap(buf)-len(buf) < lineMax {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = appendDecimal(buf, uint32(e.U))
		buf = append(buf, ' ')
		buf = appendDecimal(buf, uint32(e.V))
		buf = append(buf, '\n')
	}
	_, err := w.Write(buf)
	return err
}

// decimalPairs holds the two-digit decimal strings "00" through "99".
const decimalPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// pow10 holds 10^i for the decimal lengths a uint32 can have.
var pow10 = [10]uint32{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// decimalLen returns the number of decimal digits of x (1 for 0).
// With b = bits.Len32(x), b*1233>>12 is floor(b*log10(2)), which is the
// length of x or one less; one comparison settles which. x|1 makes 0 a
// one-digit number and moves no other x across a power of ten, all of
// which are even from 10 on.
func decimalLen(x uint32) int {
	t := bits.Len32(x|1) * 1233 >> 12
	if x|1 < pow10[t] {
		return t
	}
	return t + 1
}

// appendDecimal appends the decimal digits of x to b, as
// strconv.AppendUint(b, uint64(x), 10) does: it counts the digits
// first, then writes them two at a time from the last pair, straight
// into b's spare capacity.
func appendDecimal(b []byte, x uint32) []byte {
	n := len(b)
	b = slices.Grow(b, 10)[:n+decimalLen(x)]
	d := b[n:]
	i := len(d)
	for x >= 100 {
		q := x / 100
		r := (x - q*100) * 2
		i -= 2
		d[i], d[i+1] = decimalPairs[r], decimalPairs[r+1]
		x = q
	}
	if x >= 10 {
		d[i-2], d[i-1] = decimalPairs[2*x], decimalPairs[2*x+1]
	} else {
		d[i-1] = byte('0' + x)
	}
	return b
}

// Decode reads a graph in the format produced by Encode. Blank lines and
// lines starting with '#' are ignored. Any non-comment content after the
// header's m edges is an error: trailing lines almost always mean a
// mis-declared edge count or a concatenated file, and silently dropping
// them would decode a different graph than the one written.
//
// An edge line shaped exactly as Encode writes it is parsed in one pass
// (lineReader.edge); every other line takes the general path, which
// trims, splits and converts it by the rules of strings.TrimSpace,
// strings.Fields and strconv.Atoi. Both give a line the same verdict.
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
		return nil, lr.ended(fmt.Errorf("graph: missing header line"))
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
		if e, ok := lr.edge(n); ok {
			edges = append(edges, e)
			continue
		}
		if !readLine() {
			return nil, lr.ended(fmt.Errorf("graph: expected %d edges, got %d", m, i))
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
	return newOwned(n, edges)
}

// lineReader is the tokenizer under the three text decoders. Its
// scanner returns runs of whole lines (scanRuns), and scan walks the
// lines of a run and splits them in place, so a line costs no
// allocation and no call into the scanner: line and its fields alias the
// scanner's buffer and are valid until the next scan. The read position
// in the run and the fields are kept as offsets, not slices, so walking
// and splitting write no pointers to the heap (slices paid a GC write
// barrier per line and field while a collection ran). Lines, trimming and splitting follow bufio.ScanLines,
// strings.TrimSpace and strings.Fields exactly (ASCII spaces by table,
// any other byte decoded as a rune and tested with unicode.IsSpace), and
// atoi accepts and rejects exactly what strconv.Atoi does, so the
// decoders accept the same inputs and report the same errors as when
// they worked on strings.
type lineReader struct {
	sc     *bufio.Scanner
	lineno int    // lines read so far, comments and blank lines included
	run    []byte // the scanner's current run of whole lines
	pos    int    // run[pos:] is still unread
	line   []byte // the current line, trimmed like strings.TrimSpace
	spans  []span // split's fields of line, reused from line to line
	eof    bool   // scan has reported false
}

// span is a field of the current line: line[lo:hi].
type span struct{ lo, hi int }

func newLineReader(r io.Reader) *lineReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	sc.Split(scanRuns)
	// spans starts with room for a METIS line of a degree-16 vertex, so
	// sparse graphs never grow it.
	return &lineReader{sc: sc, spans: make([]span, 0, 16)}
}

// scanRuns is a bufio.SplitFunc that returns every whole line in the
// scanner's buffer as one token, newlines included, and the rest of the
// input at its end. A line must fit the buffer with its newline, as for
// bufio.ScanLines, so the cap, the point where bufio.ErrTooLong stops
// the scan and the last line without a newline stay those of ScanLines.
// The '\r' that ScanLines drops from a line's end is a space that the
// trimming removes.
func scanRuns(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// scan reads the next line. It reports false at the end of the input or
// on a read error, which sc.Err returns, and false ever after: scanned
// again after bufio.ErrTooLong, a Scanner would hand back the first
// 16 MiB of the over-long line as a last line.
func (lr *lineReader) scan() bool {
	if lr.pos == len(lr.run) {
		if lr.eof || !lr.sc.Scan() {
			lr.eof = true
			return false
		}
		lr.run, lr.pos = lr.sc.Bytes(), 0
	}
	line := lr.run[lr.pos:]
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
		lr.pos += i + 1
	} else {
		lr.pos = len(lr.run)
	}
	lr.lineno++
	lr.line = bytes.TrimSpace(line)
	return true
}

// edge parses the next line when it is exactly what Encode writes for an
// edge below n: 1 to 9 ASCII digits, one space, 1 to 9 ASCII digits and
// a newline, within the current run, with both numbers below n. It then
// consumes the line. Any other line it leaves unread and reports false,
// so that the general path gives it its verdict and error text; that
// holds also for a line of the right shape with an endpoint out of
// range, and for a last line without a newline. Nine digits are below
// 2^30, so u and v cannot overflow.
func (lr *lineReader) edge(n int) (Edge, bool) {
	b := lr.run[lr.pos:]
	u, i := leadingDigits(b)
	if i == 0 || i > 9 || i == len(b) || b[i] != ' ' || u >= n {
		return Edge{}, false
	}
	v, j := leadingDigits(b[i+1:])
	if j == 0 || j > 9 || i+1+j == len(b) || b[i+1+j] != '\n' || v >= n {
		return Edge{}, false
	}
	lr.pos += i + 1 + j + 1
	lr.lineno++
	return Edge{U: int32(u), V: int32(v)}, true
}

// leadingDigits parses the ASCII digits at the start of b, looking at
// no more than 10 of them, and returns their value and count. The value
// is meaningful only for a count below 10.
func leadingDigits(b []byte) (x, k int) {
	for k < len(b) && k < 10 {
		c := b[k] - '0'
		if c > 9 {
			break
		}
		x = x*10 + int(c)
		k++
	}
	return x, k
}

// ended returns the error for an input that ended early: the scanner's
// own, when a read error or a line past the 16 MiB cap stopped it, and
// err otherwise.
func (lr *lineReader) ended(err error) error {
	if scErr := lr.sc.Err(); scErr != nil {
		return scErr
	}
	return err
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
