package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// sameOutcome fails unless the decoder under test and the oracle reached
// the same outcome on in: both rejected it with the same error text, or
// both accepted it with the same n and the same edge list in ID order
// (and hence the same CSR and port order).
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
