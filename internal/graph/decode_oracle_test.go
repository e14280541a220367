package graph

// The encoder and the three decoders as they were before the byte
// tokenizer, kept verbatim as the reference the tokenizer's tests compare
// against: fuzz inputs must get the same verdict, the same error text and
// the same graph from both, and Encode must write the same bytes.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// oracleEncode writes the graph in a plain text format: the first line is
// "n m", followed by one "u v" line per edge, in edge-ID order.
func oracleEncode(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// oracleDecode reads a graph in the format produced by Encode. Blank lines and
// lines starting with '#' are ignored. Any non-comment content after the
// header's m edges is an error: trailing lines almost always mean a
// mis-declared edge count or a concatenated file, and silently dropping
// them would decode a different graph than the one written.
func oracleDecode(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	readLine := func() (string, bool) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			return line, true
		}
		return "", false
	}
	header, ok := readLine()
	if !ok {
		return nil, fmt.Errorf("graph: missing header line")
	}
	fields := strings.Fields(header)
	if len(fields) != 2 {
		return nil, fmt.Errorf("graph: bad header %q", header)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n < 0 || n > maxHeaderCount {
		return nil, fmt.Errorf("graph: bad vertex count %q", fields[0])
	}
	m, err := strconv.Atoi(fields[1])
	if err != nil || m < 0 || m > maxHeaderCount {
		return nil, fmt.Errorf("graph: bad edge count %q", fields[1])
	}
	// Bounded like the DIMACS/METIS decoders (see maxHeaderCount): this
	// decoder too ingests untrusted uploads via auto-detection, so a tiny
	// header must not commission a giant allocation.
	edges := make([]Edge, 0, min(m, preallocCap))
	for i := 0; i < m; i++ {
		line, ok := readLine()
		if !ok {
			return nil, fmt.Errorf("graph: expected %d edges, got %d", m, i)
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: bad edge line %q", line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: bad edge line %q: %w", line, err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: bad edge line %q: %w", line, err)
		}
		// Range-check before the int32 cast: an endpoint >= 2^32 would
		// otherwise wrap and silently decode a different graph.
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge line %q out of range for n=%d", line, n)
		}
		edges = append(edges, Edge{U: int32(u), V: int32(v)})
	}
	if line, ok := readLine(); ok {
		return nil, fmt.Errorf("graph: trailing content after %d declared edges: %q", m, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return New(n, edges)
}

// oracleDecodeDIMACS reads a graph in the DIMACS challenge edge format:
//
//	c <comment>
//	p edge <n> <m>
//	e <u> <v> [weight]
//
// Vertices are 1-indexed; weights are accepted and ignored. The problem
// line's descriptor ("edge", "col", ...) is not interpreted. The edge
// count must match the problem line exactly and unrecognized lines are
// errors, so truncated or concatenated files are rejected.
func oracleDecodeDIMACS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	n, m := -1, -1
	var edges []Edge
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == 'c' {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "p":
			if n >= 0 {
				return nil, fmt.Errorf("dimacs: line %d: duplicate problem line", lineno)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("dimacs: line %d: bad problem line %q", lineno, line)
			}
			var err error
			if n, err = strconv.Atoi(fields[2]); err != nil || n < 0 || n > maxHeaderCount {
				return nil, fmt.Errorf("dimacs: line %d: bad vertex count %q", lineno, fields[2])
			}
			if m, err = strconv.Atoi(fields[3]); err != nil || m < 0 || m > maxHeaderCount {
				return nil, fmt.Errorf("dimacs: line %d: bad edge count %q", lineno, fields[3])
			}
			edges = make([]Edge, 0, min(m, preallocCap))
		case "e":
			if n < 0 {
				return nil, fmt.Errorf("dimacs: line %d: edge before problem line", lineno)
			}
			if len(fields) != 3 && len(fields) != 4 { // optional trailing weight
				return nil, fmt.Errorf("dimacs: line %d: bad edge line %q", lineno, line)
			}
			u, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("dimacs: line %d: bad endpoint %q", lineno, fields[1])
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("dimacs: line %d: bad endpoint %q", lineno, fields[2])
			}
			if u < 1 || u > n || v < 1 || v > n {
				return nil, fmt.Errorf("dimacs: line %d: endpoint out of range 1..%d in %q", lineno, n, line)
			}
			edges = append(edges, Edge{U: int32(u - 1), V: int32(v - 1)})
		default:
			return nil, fmt.Errorf("dimacs: line %d: unrecognized line %q", lineno, line)
		}
	}
	if err := sc.Err(); err != nil {
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

// oracleDecodeMETIS reads a graph in the METIS/Chaco adjacency format: a header
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
func oracleDecodeMETIS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	lineno := 0
	readLine := func() (string, bool) {
		for sc.Scan() {
			lineno++
			line := sc.Text()
			if t := strings.TrimSpace(line); t != "" && t[0] == '%' {
				continue
			}
			return line, true
		}
		return "", false
	}
	// Header (blank lines before it are not meaningful, skip them).
	var header string
	for {
		line, ok := readLine()
		if !ok {
			return nil, fmt.Errorf("metis: missing header line")
		}
		if header = strings.TrimSpace(line); header != "" {
			break
		}
	}
	fields := strings.Fields(header)
	if len(fields) < 2 || len(fields) > 4 {
		return nil, fmt.Errorf("metis: bad header %q", header)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n < 0 || n > maxHeaderCount {
		return nil, fmt.Errorf("metis: bad vertex count %q", fields[0])
	}
	m, err := strconv.Atoi(fields[1])
	if err != nil || m < 0 || m > maxHeaderCount {
		return nil, fmt.Errorf("metis: bad edge count %q", fields[1])
	}
	var hasVSize, hasVWeight, hasEWeight bool
	if len(fields) >= 3 {
		f := fields[2]
		if len(f) > 3 || strings.Trim(f, "01") != "" {
			return nil, fmt.Errorf("metis: bad fmt field %q", f)
		}
		f = strings.Repeat("0", 3-len(f)) + f
		hasVSize, hasVWeight, hasEWeight = f[0] == '1', f[1] == '1', f[2] == '1'
	}
	ncon := 0
	if hasVWeight {
		ncon = 1
	}
	if len(fields) == 4 {
		if ncon, err = strconv.Atoi(fields[3]); err != nil || ncon < 1 {
			return nil, fmt.Errorf("metis: bad ncon field %q", fields[3])
		}
		if !hasVWeight {
			return nil, fmt.Errorf("metis: ncon given but fmt %q declares no vertex weights", fields[2])
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
		line, ok := readLine()
		if !ok {
			break
		}
		toks := strings.Fields(line)
		if len(toks) < skip {
			return nil, fmt.Errorf("metis: line %d: vertex %d has %d tokens, fmt requires at least %d", lineno, u, len(toks), skip)
		}
		toks = toks[skip:]
		if hasEWeight && len(toks)%2 != 0 {
			return nil, fmt.Errorf("metis: line %d: vertex %d has an odd neighbor/weight list", lineno, u)
		}
		step := 1
		if hasEWeight {
			step = 2
		}
		for i := 0; i < len(toks); i += step {
			v, err := strconv.Atoi(toks[i])
			if err != nil {
				return nil, fmt.Errorf("metis: line %d: bad neighbor %q", lineno, toks[i])
			}
			if v < 1 || v > n {
				return nil, fmt.Errorf("metis: line %d: neighbor %d out of range 1..%d", lineno, v, n)
			}
			if v == u {
				return nil, fmt.Errorf("metis: line %d: self-loop at vertex %d", lineno, u)
			}
			entries++
			if u < v {
				edges = append(edges, Edge{U: int32(u - 1), V: int32(v - 1)})
			}
		}
	}
	for {
		line, ok := readLine()
		if !ok {
			break
		}
		if t := strings.TrimSpace(line); t != "" {
			return nil, fmt.Errorf("metis: line %d: trailing content after %d vertex lines: %q", lineno, n, t)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(edges) != m || entries != 2*m {
		return nil, fmt.Errorf("metis: header declares %d edges, adjacency lists hold %d mentions and %d distinct edges (file asymmetric or truncated?)", m, entries, len(edges))
	}
	return New(n, edges)
}
