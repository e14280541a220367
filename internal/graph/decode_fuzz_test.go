package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// sameOutcome fails unless the decoder under test and the oracle reached
// the same outcome on in: both rejected it with the same error text, or
// both accepted it with the same n, the same edge list in ID order and
// the same CSR. The oracles build their graphs through New, so the CSR
// check holds the decoders' own fill (newOwned) to New's.
func sameOutcome(t *testing.T, in []byte, g *Graph, err error, want *Graph, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("input %q:\n got error %s\nwant error %s", short(string(in)), short(err), short(wantErr))
	}
	if err != nil {
		return
	}
	if g.N() != want.N() || !slices.Equal(g.Edges(), want.Edges()) {
		t.Fatalf("input %q: decoded n=%d edges %v, oracle n=%d edges %v", short(string(in)), g.N(), g.Edges(), want.N(), want.Edges())
	}
	if !slices.Equal(g.Offsets(), want.Offsets()) || !slices.Equal(g.Arcs(), want.Arcs()) {
		t.Fatalf("input %q: decoded offsets %v arcs %v, oracle offsets %v arcs %v", short(string(in)), short(g.Offsets()), short(g.Arcs()), short(want.Offsets()), short(want.Arcs()))
	}
}

// short renders v for a failure message, cut to its first 200 bytes.
func short(v any) string {
	s := fmt.Sprint(v)
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}

// The fuzz targets compare each decoder with its oracle in
// decode_oracle_test.go on arbitrary bytes. Their seed corpora live in
// testdata/fuzz/<target>/.

func FuzzDecodePlain(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := Decode(bytes.NewReader(in))
		want, wantErr := oracleDecode(bytes.NewReader(in))
		sameOutcome(t, in, g, err, want, wantErr)
	})
}

func FuzzDecodeDIMACS(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := DecodeDIMACS(bytes.NewReader(in))
		want, wantErr := oracleDecodeDIMACS(bytes.NewReader(in))
		sameOutcome(t, in, g, err, want, wantErr)
	})
}

func FuzzDecodeMETIS(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := DecodeMETIS(bytes.NewReader(in))
		want, wantErr := oracleDecodeMETIS(bytes.NewReader(in))
		sameOutcome(t, in, g, err, want, wantErr)
	})
}

// FuzzDecodeAuto's oracle is DetectFormat followed by the oracle decoder
// of the detected format.
func FuzzDecodeAuto(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		g, format, err := DecodeAuto(bytes.NewReader(in))
		want, wantFormat, wantErr := oracleDecodeAuto(in)
		if format != wantFormat {
			t.Fatalf("input %q: detected %q, oracle %q", in, format, wantFormat)
		}
		sameOutcome(t, in, g, err, want, wantErr)
	})
}

func oracleDecodeAuto(in []byte) (*Graph, Format, error) {
	br := bufio.NewReaderSize(bytes.NewReader(in), 1<<16)
	f, err := DetectFormat(br)
	if err != nil {
		return nil, "", err
	}
	var g *Graph
	switch f {
	case FormatPlain:
		g, err = oracleDecode(br)
	case FormatDIMACS:
		g, err = oracleDecodeDIMACS(br)
	case FormatMETIS:
		g, err = oracleDecodeMETIS(br)
	}
	return g, f, err
}

// TestDecodeLineTooLong feeds each decoder a line past the scanner's
// 16 MiB cap, as a header and as a later line, and each must report
// bufio.ErrTooLong in a short message, as the oracle does: not a missing
// header or edge, and not the first 16 MiB of the line quoted as
// trailing content (nwserve returns the message as a 400 body).
func TestDecodeLineTooLong(t *testing.T) {
	long := strings.Repeat("1", 1<<24+1)
	plain := func(b []byte) (*Graph, error) { return Decode(bytes.NewReader(b)) }
	plainOracle := func(b []byte) (*Graph, error) { return oracleDecode(bytes.NewReader(b)) }
	dimacs := func(b []byte) (*Graph, error) { return DecodeDIMACS(bytes.NewReader(b)) }
	dimacsOracle := func(b []byte) (*Graph, error) { return oracleDecodeDIMACS(bytes.NewReader(b)) }
	metis := func(b []byte) (*Graph, error) { return DecodeMETIS(bytes.NewReader(b)) }
	metisOracle := func(b []byte) (*Graph, error) { return oracleDecodeMETIS(bytes.NewReader(b)) }
	cases := []struct {
		name           string
		in             string
		decode, oracle func([]byte) (*Graph, error)
	}{
		{"plain/header", long + " 1\n0 1\n", plain, plainOracle},
		{"plain/edge", "2 1\n0 " + long + "\n", plain, plainOracle},
		{"dimacs/header", "p edge " + long + " 1\ne 1 2\n", dimacs, dimacsOracle},
		{"dimacs/edge", "p edge 2 1\ne 1 " + long + "\n", dimacs, dimacsOracle},
		{"metis/header", long + " 1\n2\n1\n", metis, metisOracle},
		{"metis/vertex", "2 1\n2 " + long + "\n1\n", metis, metisOracle},
	}
	for _, c := range cases {
		in := []byte(c.in)
		g, err := c.decode(in)
		if !errors.Is(err, bufio.ErrTooLong) || len(err.Error()) >= 1<<10 {
			t.Fatalf("%s: error %s, want bufio.ErrTooLong in under 1 KiB", c.name, short(err))
		}
		want, wantErr := c.oracle(in)
		sameOutcome(t, []byte(c.name), g, err, want, wantErr)
	}
}

// TestEncodeMatchesOracle pins Encode's bytes to the fmt.Fprintf encoder
// it replaced: Store.Mutate content-addresses derived graphs by the
// SHA-256 of these bytes, so one drifted byte would give every derived
// graph a new ID. Each encoding must also decode back edge for edge.
func TestEncodeMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var graphs []*Graph
	for _, n := range []int{0, 1, 2, 7, 1000, maxHeaderCount} {
		for _, m := range []int{0, 1, 5, 200} {
			if n < 2 && m > 0 {
				continue
			}
			if n == maxHeaderCount && m != 5 {
				continue // one graph of this size is enough
			}
			edges := make([]Edge, 0, m)
			for len(edges) < m {
				// Draw from the top of the ID range too, and repeat
				// the previous edge now and then (parallel edges).
				u, v := int32(r.Intn(n)), int32(n-1-r.Intn(min(n, 3)))
				if len(edges) > 0 && r.Intn(4) == 0 {
					u, v = edges[len(edges)-1].V, edges[len(edges)-1].U
				}
				if u != v {
					edges = append(edges, Edge{U: u, V: v})
				}
			}
			graphs = append(graphs, MustNew(n, edges))
		}
	}
	// A multigraph whose endpoints sit on both sides of every change of
	// decimal length up to n-1 = 2^24-1, each edge also reversed and
	// repeated.
	var edges []Edge
	for p := int32(10); p < maxHeaderCount; p *= 10 {
		e := Edge{U: p - 1, V: p}
		edges = append(edges, e, e, Edge{U: e.V, V: e.U}, Edge{U: 0, V: p}, Edge{U: p - 1, V: maxHeaderCount - 1})
	}
	edges = append(edges, Edge{U: maxHeaderCount - 1, V: 1})
	graphs = append(graphs, MustNew(maxHeaderCount, edges))
	for _, g := range graphs {
		var got, want bytes.Buffer
		if err := Encode(&got, g); err != nil {
			t.Fatal(err)
		}
		if err := oracleEncode(&want, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d m=%d: Encode wrote %q, oracle %q", g.N(), g.M(), got.Bytes(), want.Bytes())
		}
		h, err := Decode(&got)
		if err != nil {
			t.Fatalf("n=%d m=%d: %v", g.N(), g.M(), err)
		}
		if h.N() != g.N() || !slices.Equal(h.Edges(), g.Edges()) {
			t.Fatalf("n=%d m=%d: decoded n=%d edges %v", g.N(), g.M(), h.N(), h.Edges())
		}
	}
}

// TestDecodeMatchesOracleAcrossRuns holds each decoder, and DecodeAuto,
// to its oracle on texts of over 200 KB, so that the scanner's runs of
// whole lines end and refill many times. Lines of every length from 1
// to 40 bytes (comments, Encode-shaped edges, edges padded with zeros
// or spaces and tabs, blank lines, METIS comments and empty vertex
// lines, some ending in CRLF) put the run boundaries at varied offsets
// within a line, and each text is read both whole and in reads of random
// size, which move them again. Each text is decoded intact and with one
// line near its end broken, so error texts and line numbers are compared
// past many runs.
func TestDecodeMatchesOracleAcrossRuns(t *testing.T) {
	decode := map[Format]func(io.Reader) (*Graph, error){
		FormatPlain: Decode, FormatDIMACS: DecodeDIMACS, FormatMETIS: DecodeMETIS,
	}
	oracle := map[Format]func(io.Reader) (*Graph, error){
		FormatPlain: oracleDecode, FormatDIMACS: oracleDecodeDIMACS, FormatMETIS: oracleDecodeMETIS,
	}
	for _, f := range []Format{FormatPlain, FormatDIMACS, FormatMETIS} {
		for _, broken := range []bool{false, true} {
			in, lengths := acrossRunsText(f, broken)
			if len(in) < 200<<10 {
				t.Fatalf("%s text has %d bytes, want at least 200 KiB", f, len(in))
			}
			for l := 1; l <= 40; l++ {
				if !lengths[l] {
					t.Fatalf("%s text has no line of %d bytes", f, l)
				}
			}
			want, wantErr := oracle[f](bytes.NewReader(in))
			if (wantErr != nil) != broken {
				t.Fatalf("%s text, broken %v: oracle error %v", f, broken, wantErr)
			}
			for seed := int64(0); seed < 2; seed++ {
				g, err := decode[f](chunkedReader(in, seed))
				sameOutcome(t, in, g, err, want, wantErr)
				g, format, err := DecodeAuto(chunkedReader(in, seed))
				if format != f {
					t.Fatalf("%s text detected as %q", f, format)
				}
				sameOutcome(t, in, g, err, want, wantErr)
			}
		}
	}
}

// chunkedReader reads in whole for seed 0, and otherwise in reads of
// 1 byte to 8 KiB, their sizes drawn from seed.
func chunkedReader(in []byte, seed int64) io.Reader {
	if seed == 0 {
		return bytes.NewReader(in)
	}
	return &randomReads{in: in, r: rand.New(rand.NewSource(seed))}
}

type randomReads struct {
	in []byte
	r  *rand.Rand
}

func (rr *randomReads) Read(p []byte) (int, error) {
	if len(rr.in) == 0 {
		return 0, io.EOF
	}
	k := copy(p[:min(len(p), 1+rr.r.Intn(8<<10))], rr.in)
	rr.in = rr.in[k:]
	return k, nil
}

// acrossRunsText writes one random multigraph (6,000 vertices, 25,000
// edges, some of them parallel) in format f, with comment lines of every
// length from 1 to 40 bytes between its lines, and returns the text and
// the set of line lengths in it (line endings excluded). Broken, the
// text has an out-of-range endpoint near its end: on an Encode-shaped
// line for the plain format.
func acrossRunsText(f Format, broken bool) ([]byte, map[int]bool) {
	const n, m = 6000, 25000
	r := rand.New(rand.NewSource(1))
	edges := make([]Edge, 0, m)
	adj := make([][]int, n)
	for len(edges) < m {
		e := Edge{U: int32(r.Intn(n)), V: int32(r.Intn(n))}
		if len(edges) > 0 && r.Intn(20) == 0 {
			e = edges[r.Intn(len(edges))]
		}
		if e.U == e.V || e.U%97 == 0 || e.V%97 == 0 { // vertices 97k stay isolated
			continue
		}
		edges = append(edges, e)
		adj[e.U] = append(adj[e.U], int(e.V))
		adj[e.V] = append(adj[e.V], int(e.U))
	}
	bad := m - 100 // the broken edge, or METIS vertex line
	if f == FormatMETIS {
		bad = n - 40
	}

	var b bytes.Buffer
	lengths := map[int]bool{}
	line := func(s string) {
		lengths[len(s)] = true
		b.WriteString(s)
		if r.Intn(8) == 0 {
			b.WriteString("\r\n")
		} else {
			b.WriteByte('\n')
		}
	}
	comment := map[Format]byte{FormatPlain: '#', FormatDIMACS: 'c', FormatMETIS: '%'}[f]
	commentLen := 0
	maybeComment := func() {
		switch r.Intn(10) {
		case 0:
			commentLen = commentLen%40 + 1
			filler := make([]byte, commentLen-1)
			for i := range filler {
				filler[i] = " #%abcxyz019\t"[r.Intn(13)]
			}
			line(string(comment) + string(filler))
		case 1:
			if f != FormatMETIS { // a blank METIS line is a vertex
				line(strings.Repeat(" ", r.Intn(3)))
			}
		}
	}
	num := func(v int) string { return strconv.Itoa(v) }

	switch f {
	case FormatPlain:
		line("# across runs")
		line(num(n) + " " + num(m))
		for i, e := range edges {
			maybeComment()
			if broken && i == bad {
				line(num(int(e.U)) + " " + num(n))
				continue
			}
			line(padded(r, num(int(e.U)), num(int(e.V))))
		}
	case FormatDIMACS:
		line("p edge " + num(n) + " " + num(m))
		for i, e := range edges {
			maybeComment()
			v := int(e.V) + 1
			if broken && i == bad {
				v = n + 1
			}
			if r.Intn(4) == 0 {
				line(padded(r, "e", num(int(e.U)+1), num(v), num(r.Intn(100))))
			} else {
				line(padded(r, "e", num(int(e.U)+1), num(v)))
			}
		}
	case FormatMETIS:
		line("% across runs")
		line(num(n) + " " + num(m))
		for u := 0; u < n; u++ {
			maybeComment()
			fields := make([]string, 0, len(adj[u])+1)
			for _, v := range adj[u] {
				fields = append(fields, num(v+1))
			}
			if broken && u == bad {
				fields = append(fields, num(n+1))
			}
			line(padded(r, fields...))
		}
	}
	return b.Bytes(), lengths
}

// padded joins fields with single spaces and pads the line toward a
// random length of at most 40 bytes: with leading zeros on a numeric
// field, or with spaces and tabs before, between or after the fields
// (or in place of none). Half the lines stay as Encode writes them.
func padded(r *rand.Rand, fields ...string) string {
	length := len(strings.Join(fields, " "))
	extra := 0
	if length < 40 {
		extra = r.Intn(41 - length)
	}
	space := func() string {
		s := make([]byte, extra)
		for i := range s {
			s[i] = " \t"[r.Intn(2)]
		}
		return string(s)
	}
	fields = slices.Clone(fields)
	switch k := r.Intn(10); {
	case k >= 5:
	case len(fields) == 0: // an empty METIS vertex line
		return space()
	case k == 0:
		if i := r.Intn(len(fields)); fields[i] != "e" {
			fields[i] = strings.Repeat("0", extra) + fields[i]
		}
	case k == 1:
		fields[0] = space() + fields[0]
	case k == 2:
		fields[len(fields)-1] += space()
	default:
		i := r.Intn(len(fields))
		fields[i] += space()
	}
	return strings.Join(fields, " ")
}

// TestAppendDecimal holds Encode's digit writer to strconv.AppendUint on
// both sides of every power of ten a uint32 holds, at its extremes and
// on random values, appending to an empty and to a non-empty slice.
func TestAppendDecimal(t *testing.T) {
	xs := []uint32{0, 1, math.MaxUint32 - 1, math.MaxUint32, 1 << 24, 1<<24 - 1, 1 << 31}
	for p := uint64(1); p <= math.MaxUint32; p *= 10 {
		for _, x := range []uint64{p - 1, p, p + 1, 2*p - 1, 9 * p} {
			if x <= math.MaxUint32 {
				xs = append(xs, uint32(x))
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		xs = append(xs, r.Uint32()>>r.Intn(32))
	}
	for _, x := range xs {
		for _, prefix := range []string{"", "12 "} {
			got := appendDecimal([]byte(prefix), x)
			want := strconv.AppendUint([]byte(prefix), uint64(x), 10)
			if !bytes.Equal(got, want) {
				t.Fatalf("appendDecimal(%q, %d) = %q, want %q", prefix, x, got, want)
			}
			if l := decimalLen(x); l != len(want)-len(prefix) {
				t.Fatalf("decimalLen(%d) = %d, want %d", x, l, len(want)-len(prefix))
			}
		}
	}
}
