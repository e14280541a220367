package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Format identifies a graph file format understood by this package.
type Format string

const (
	// FormatPlain is the package's native "n m" + edge-list format
	// (Encode/Decode). Comments start with '#', vertices are 0-indexed.
	FormatPlain Format = "plain"
	// FormatDIMACS is the DIMACS challenge format: 'c' comment lines, one
	// 'p edge n m' problem line, and 'e u v' edge lines, 1-indexed.
	FormatDIMACS Format = "dimacs"
	// FormatMETIS is the METIS/Chaco adjacency format: a "n m [fmt [ncon]]"
	// header followed by one neighbor-list line per vertex, 1-indexed, with
	// '%' comments; every edge appears in both endpoints' lines.
	FormatMETIS Format = "metis"
	// FormatAuto asks the decoder to detect the format (DetectFormat).
	FormatAuto Format = "auto"
)

// maxHeaderCount bounds the n and m a decoder accepts from a header.
// These decoders ingest untrusted uploads (internal/service), and
// graph.New allocates ~28 bytes per declared vertex (adjacency slice
// header + degree) whether or not the vertex ever appears in an edge —
// so a tiny header must not be able to commission a giant allocation.
// 2^24 vertices caps that at ~470 MB, the same order as the service's
// upload-body limit, while staying two orders of magnitude above the
// largest graphs this module targets. preallocCap additionally bounds
// what a header alone can preallocate for edges; real edges still grow
// the slice by append.
const (
	maxHeaderCount = 1 << 24
	preallocCap    = 1 << 20
)

// ParseFormat maps a user-supplied name ("", "auto", "plain", "edgelist",
// "dimacs", "metis") to a Format.
func ParseFormat(name string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "auto":
		return FormatAuto, nil
	case "plain", "edgelist", "edge-list":
		return FormatPlain, nil
	case "dimacs":
		return FormatDIMACS, nil
	case "metis", "chaco":
		return FormatMETIS, nil
	default:
		return "", fmt.Errorf("graph: unknown format %q (want auto, plain, dimacs or metis)", name)
	}
}

// DecodeFormat reads a graph from r in the given format; FormatAuto
// detects the format first (see DetectFormat for the rules).
func DecodeFormat(r io.Reader, f Format) (*Graph, error) {
	switch f {
	case FormatPlain:
		return Decode(r)
	case FormatDIMACS:
		return DecodeDIMACS(r)
	case FormatMETIS:
		return DecodeMETIS(r)
	case FormatAuto:
		g, _, err := DecodeAuto(r)
		return g, err
	default:
		return nil, fmt.Errorf("graph: unknown format %q", f)
	}
}

// DecodeAuto detects the format of r from its first meaningful line and
// decodes it, reporting the detected format.
func DecodeAuto(r io.Reader) (*Graph, Format, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	f, err := DetectFormat(br)
	if err != nil {
		return nil, "", err
	}
	g, err := DecodeFormat(br, f)
	return g, f, err
}

// DetectFormat sniffs the format of the graph data in br without
// consuming it, by inspecting the first meaningful (non-blank) line:
//
//   - a line starting with 'c', 'p' or 'e'  -> DIMACS
//   - a line starting with '%'              -> METIS (comment)
//   - a line starting with '#'              -> plain (comment)
//   - an all-integer line of 3 or 4 fields  -> METIS (header with fmt)
//   - an all-integer line of 2 fields       -> plain
//
// The last rule is a documented ambiguity: a METIS file whose header is
// exactly "n m" with no '%' comments is indistinguishable from a plain
// header by one line, and decodes as plain. Pass FormatMETIS explicitly
// for such files.
func DetectFormat(br *bufio.Reader) (Format, error) {
	line, err := peekLine(br)
	if err != nil {
		return "", err
	}
	switch line[0] {
	case 'c', 'p', 'e':
		return FormatDIMACS, nil
	case '%':
		return FormatMETIS, nil
	case '#':
		return FormatPlain, nil
	}
	fields := strings.Fields(line)
	for _, f := range fields {
		if _, err := strconv.Atoi(f); err != nil {
			return "", fmt.Errorf("graph: cannot detect format from first line %q", line)
		}
	}
	switch len(fields) {
	case 2:
		return FormatPlain, nil
	case 3, 4:
		return FormatMETIS, nil
	default:
		return "", fmt.Errorf("graph: cannot detect format from first line %q", line)
	}
}

// peekLine returns the first non-blank line of br without consuming any
// input. It looks at most 64 KiB ahead.
func peekLine(br *bufio.Reader) (string, error) {
	const maxPeek = 1 << 16
	for peek := 512; ; peek *= 8 {
		buf, err := br.Peek(peek)
		if len(buf) == 0 {
			if err == nil || err == io.EOF {
				return "", fmt.Errorf("graph: empty input")
			}
			return "", err
		}
		window := string(buf)
		complete := err != nil || peek >= maxPeek // window holds all there is (or enough)
		for len(window) > 0 {
			nl := strings.IndexByte(window, '\n')
			var line string
			if nl < 0 {
				if !complete {
					break // line may continue past the window; peek further
				}
				line, window = window, ""
			} else {
				line, window = window[:nl], window[nl+1:]
			}
			line = strings.TrimSpace(line)
			if line != "" {
				return line, nil
			}
		}
		if complete {
			return "", fmt.Errorf("graph: only blank lines in input")
		}
	}
}

// DecodeDIMACS reads a graph in the DIMACS challenge edge format:
//
//	c <comment>
//	p edge <n> <m>
//	e <u> <v> [weight]
//
// Vertices are 1-indexed; weights are accepted and ignored. The problem
// line's descriptor ("edge", "col", ...) is not interpreted. The edge
// count must match the problem line exactly and unrecognized lines are
// errors, so truncated or concatenated files are rejected.
func DecodeDIMACS(r io.Reader) (*Graph, error) {
	lr := newLineReader(r)
	n, m := -1, -1
	var edges []Edge
	for lr.scan() {
		line := lr.line
		if len(line) == 0 || line[0] == 'c' {
			continue
		}
		nf := lr.split()
		switch string(lr.field(0)) {
		case "p":
			if n >= 0 {
				return nil, fmt.Errorf("dimacs: line %d: duplicate problem line", lr.lineno)
			}
			if nf != 4 {
				return nil, fmt.Errorf("dimacs: line %d: bad problem line %q", lr.lineno, line)
			}
			var err error
			if n, err = atoi(lr.field(2)); err != nil || n < 0 || n > maxHeaderCount {
				return nil, fmt.Errorf("dimacs: line %d: bad vertex count %q", lr.lineno, lr.field(2))
			}
			if m, err = atoi(lr.field(3)); err != nil || m < 0 || m > maxHeaderCount {
				return nil, fmt.Errorf("dimacs: line %d: bad edge count %q", lr.lineno, lr.field(3))
			}
			edges = make([]Edge, 0, min(m, preallocCap))
		case "e":
			if n < 0 {
				return nil, fmt.Errorf("dimacs: line %d: edge before problem line", lr.lineno)
			}
			if nf != 3 && nf != 4 { // optional trailing weight
				return nil, fmt.Errorf("dimacs: line %d: bad edge line %q", lr.lineno, line)
			}
			u, err := atoi(lr.field(1))
			if err != nil {
				return nil, fmt.Errorf("dimacs: line %d: bad endpoint %q", lr.lineno, lr.field(1))
			}
			v, err := atoi(lr.field(2))
			if err != nil {
				return nil, fmt.Errorf("dimacs: line %d: bad endpoint %q", lr.lineno, lr.field(2))
			}
			if u < 1 || u > n || v < 1 || v > n {
				return nil, fmt.Errorf("dimacs: line %d: endpoint out of range 1..%d in %q", lr.lineno, n, line)
			}
			edges = append(edges, Edge{U: int32(u - 1), V: int32(v - 1)})
		default:
			return nil, fmt.Errorf("dimacs: line %d: unrecognized line %q", lr.lineno, line)
		}
	}
	if err := lr.sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("dimacs: missing problem line")
	}
	if len(edges) != m {
		return nil, fmt.Errorf("dimacs: problem line declares %d edges, file has %d", m, len(edges))
	}
	return New(n, edges)
}

// DecodeMETIS reads a graph in the METIS/Chaco adjacency format: a header
// line "n m [fmt [ncon]]" followed by one line per vertex listing its
// 1-indexed neighbors, with '%' comment lines allowed anywhere. A blank
// line is a vertex with no neighbors. Every edge must appear in both
// endpoints' lines; the decoder keeps the copy read at the
// lower-numbered endpoint and checks that the totals reconcile with the
// header's m, which catches asymmetric and truncated files.
//
// The fmt field is honored for weights — vertex sizes ('1xx'), vertex
// weights ('x1x', with ncon values per vertex) and edge weights ('xx1')
// are parsed and discarded, since this package's graphs are unweighted.
func DecodeMETIS(r io.Reader) (*Graph, error) {
	lr := newLineReader(r)
	readLine := func() bool {
		for lr.scan() {
			if len(lr.line) == 0 || lr.line[0] != '%' {
				return true
			}
		}
		return false
	}
	// Header (blank lines before it are not meaningful, skip them).
	for {
		if !readLine() {
			return nil, fmt.Errorf("metis: missing header line")
		}
		if len(lr.line) != 0 {
			break
		}
	}
	nf := lr.split()
	if nf < 2 || nf > 4 {
		return nil, fmt.Errorf("metis: bad header %q", lr.line)
	}
	n, err := atoi(lr.field(0))
	if err != nil || n < 0 || n > maxHeaderCount {
		return nil, fmt.Errorf("metis: bad vertex count %q", lr.field(0))
	}
	m, err := atoi(lr.field(1))
	if err != nil || m < 0 || m > maxHeaderCount {
		return nil, fmt.Errorf("metis: bad edge count %q", lr.field(1))
	}
	var hasVSize, hasVWeight, hasEWeight bool
	if nf >= 3 {
		f := lr.field(2)
		if len(f) > 3 || len(bytes.Trim(f, "01")) != 0 {
			return nil, fmt.Errorf("metis: bad fmt field %q", f)
		}
		// Up to three binary digits, missing leading ones zero.
		bits := 0
		for _, c := range f {
			bits = bits<<1 | int(c-'0')
		}
		hasVSize, hasVWeight, hasEWeight = bits&4 != 0, bits&2 != 0, bits&1 != 0
	}
	ncon := 0
	if hasVWeight {
		ncon = 1
	}
	if nf == 4 {
		if ncon, err = atoi(lr.field(3)); err != nil || ncon < 1 {
			return nil, fmt.Errorf("metis: bad ncon field %q", lr.field(3))
		}
		if !hasVWeight {
			return nil, fmt.Errorf("metis: ncon given but fmt %q declares no vertex weights", lr.field(2))
		}
	}
	skip := ncon // leading per-vertex tokens to discard
	if hasVSize {
		skip++
	}
	edges := make([]Edge, 0, min(m, preallocCap))
	entries := 0 // total neighbor mentions; must equal 2m for a symmetric file
	for u := 1; u <= n; u++ {
		// EOF after the last edge-bearing line stands for trailing
		// degree-0 vertices; the m reconciliation below still catches
		// files truncated mid-edges.
		if !readLine() {
			break
		}
		nf := lr.split()
		if nf < skip {
			return nil, fmt.Errorf("metis: line %d: vertex %d has %d tokens, fmt requires at least %d", lr.lineno, u, nf, skip)
		}
		if hasEWeight && (nf-skip)%2 != 0 {
			return nil, fmt.Errorf("metis: line %d: vertex %d has an odd neighbor/weight list", lr.lineno, u)
		}
		step := 1
		if hasEWeight {
			step = 2
		}
		for i := skip; i < nf; i += step {
			v, err := atoi(lr.field(i))
			if err != nil {
				return nil, fmt.Errorf("metis: line %d: bad neighbor %q", lr.lineno, lr.field(i))
			}
			if v < 1 || v > n {
				return nil, fmt.Errorf("metis: line %d: neighbor %d out of range 1..%d", lr.lineno, v, n)
			}
			if v == u {
				return nil, fmt.Errorf("metis: line %d: self-loop at vertex %d", lr.lineno, u)
			}
			entries++
			if u < v {
				edges = append(edges, Edge{U: int32(u - 1), V: int32(v - 1)})
			}
		}
	}
	for readLine() {
		if len(lr.line) != 0 {
			return nil, fmt.Errorf("metis: line %d: trailing content after %d vertex lines: %q", lr.lineno, n, lr.line)
		}
	}
	if err := lr.sc.Err(); err != nil {
		return nil, err
	}
	if len(edges) != m || entries != 2*m {
		return nil, fmt.Errorf("metis: header declares %d edges, adjacency lists hold %d mentions and %d distinct edges (file asymmetric or truncated?)", m, entries, len(edges))
	}
	return New(n, edges)
}
