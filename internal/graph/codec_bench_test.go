package graph_test

import (
	"bytes"
	"io"
	"testing"

	"nwforest/internal/gen"
	"nwforest/internal/graph"
)

// renderings returns g as text in the three formats.
func renderings(t testing.TB, g *graph.Graph) map[string][]byte {
	t.Helper()
	var plain bytes.Buffer
	if err := graph.Encode(&plain, g); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"plain":  plain.Bytes(),
		"dimacs": []byte(graph.EncodeDIMACS(g)),
		"metis":  []byte(graph.EncodeMETIS(g)),
	}
}

var decoders = map[string]func(io.Reader) (*graph.Graph, error){
	"plain":  graph.Decode,
	"dimacs": graph.DecodeDIMACS,
	"metis":  graph.DecodeMETIS,
	"auto": func(r io.Reader) (*graph.Graph, error) {
		g, _, err := graph.DecodeAuto(r)
		return g, err
	},
}

// TestDecodeAllocs pins the codecs' allocations to a count that does not
// grow with the input: a road network with about 1k edges and one with
// about 16k must cost each decoder, and Encode, equally many.
func TestDecodeAllocs(t *testing.T) {
	small, large := gen.RoadNetwork(24, 24, 1), gen.RoadNetwork(96, 96, 1)
	if small.M() < 900 || large.M() < 15000 {
		t.Fatalf("road networks have m=%d and m=%d", small.M(), large.M())
	}
	smallText, largeText := renderings(t, small), renderings(t, large)
	for _, format := range []string{"plain", "dimacs", "metis"} {
		for _, name := range []string{format, "auto"} {
			decode := decoders[name]
			allocs := func(in []byte) float64 {
				return testing.AllocsPerRun(5, func() {
					if _, err := decode(bytes.NewReader(in)); err != nil {
						t.Fatal(err)
					}
				})
			}
			a, b := allocs(smallText[format]), allocs(largeText[format])
			if a != b {
				t.Errorf("%s decoder on %s text: %v allocations at m=%d, %v at m=%d", name, format, a, small.M(), b, large.M())
			}
		}
	}
	encode := func(g *graph.Graph) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := graph.Encode(io.Discard, g); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := encode(small), encode(large); a != b {
		t.Errorf("Encode: %v allocations at m=%d, %v at m=%d", a, small.M(), b, large.M())
	}
}

// beRoad is be-road's graph: the 192x192 road network of perfbench (in
// generation order; perfbench shuffles its edge IDs per seed).
func beRoad() *graph.Graph { return gen.RoadNetwork(192, 192, 1) }

func benchmarkDecode(b *testing.B, format string) {
	in := renderings(b, beRoad())[format]
	decode := decoders[format]
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decode(bytes.NewReader(in)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePlain(b *testing.B)  { benchmarkDecode(b, "plain") }
func BenchmarkDecodeDIMACS(b *testing.B) { benchmarkDecode(b, "dimacs") }
func BenchmarkDecodeMETIS(b *testing.B)  { benchmarkDecode(b, "metis") }

func BenchmarkEncode(b *testing.B) {
	g := beRoad()
	var buf bytes.Buffer
	if err := graph.Encode(&buf, g); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graph.Encode(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}
