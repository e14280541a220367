package service

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"nwforest/internal/dynamic"
	"nwforest/internal/graph"
	"nwforest/internal/persist"
)

// Store ingests graphs, content-addresses them by the SHA-256 of their
// raw bytes, and keeps parsed *graph.Graph values warm in an LRU. The
// source of every graph (uploaded bytes, or a file path) is retained, so
// a graph evicted from the warm set is transparently re-parsed on its
// next use rather than lost. Upload-backed sources hold their raw bytes
// in memory, so their total is bounded by maxSourceBytes: beyond it the
// oldest uploads are dropped entirely (their IDs become unknown) rather
// than letting a long-lived server grow without bound. File-backed
// sources retain only the path and never count against the budget.
//
// Graphs are versions: Mutate derives a child graph from a stored parent
// by a batch of edge insertions/deletions, content-addresses the result
// like any ingest, and records the parent link plus the mutation batch.
// Because identity is the content hash, "version" and "graph" are the
// same thing — equal results collapse to one entry, and a stale result
// cache entry for an old version can never be served for a new one.
type Store struct {
	mu             sync.Mutex
	sources        map[string]*graphSource
	warm           *lru[string, *graph.Graph]
	uploadOrder    []string // upload-backed IDs, oldest first
	uploadBytes    int64
	maxSourceBytes int64
	warmBytes      int64 // Footprint sum of the warm parsed graphs

	// persistLog, when set, makes every successful add write-through to
	// disk before it is acknowledged. Recovery replays call add before
	// attachPersist so recovered graphs are not re-persisted.
	persistLog *persist.Log

	hits, misses, evictions, reparses, sourceEvictions, mutations int64
}

// attachPersist turns on write-through durability for subsequent adds.
func (s *Store) attachPersist(l *persist.Log) {
	s.mu.Lock()
	s.persistLog = l
	s.mu.Unlock()
}

// warmPut warms a parsed graph, keeping warmBytes in sync. Must be
// called with s.mu held. A re-put of an already-warm ID only refreshes
// recency: the footprint is identical for the same content hash.
func (s *Store) warmPut(id string, g *graph.Graph) {
	if _, ok := s.warm.get(id); ok {
		return
	}
	s.warm.put(id, g)
	s.warmBytes += g.Footprint()
}

// graphSource is where a stored graph's bytes live.
type graphSource struct {
	info GraphInfo
	path string    // file-backed when non-empty
	data []byte    // upload-backed otherwise
	mut  *Mutation // for Mutate-derived graphs: the batch that produced it
	// persisted (guarded by Store.mu) records that this entry is known
	// durable on disk — its write-through succeeded or it was recovered
	// from disk. It is cleared when a retention sweep removes the entry's
	// graph file, so a later identical upload re-persists instead of
	// being acked on the strength of bytes that are gone.
	persisted bool
}

// GraphInfo describes a stored graph.
type GraphInfo struct {
	// ID is "sha256:" + the hex digest of the graph's raw bytes.
	ID     string `json:"id"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	Format string `json:"format"`
	Bytes  int64  `json:"bytes"`
	// Parent is the version this graph was derived from by Mutate
	// (empty for directly ingested graphs). Lineage follows the first
	// derivation: if an identical graph is later re-derived or uploaded,
	// the original entry (and its parent link) wins.
	Parent string `json:"parent,omitempty"`
}

// Mutation is a batch of edge updates applied to a parent graph.
// Deletions name parent edge IDs (indices into the parent's edge list,
// the order its wire format declares them in) and are applied before
// insertions, so a deletion can never target an edge inserted by the
// same batch. The derived child's edge list is the canonical dynamic
// compaction order: surviving parent edges in parent-ID order, then
// insertions in batch order.
type Mutation struct {
	// Insert lists new undirected edges as [u, v] pairs.
	Insert [][2]int32 `json:"insert,omitempty"`
	// Delete lists parent edge IDs to remove.
	Delete []int32 `json:"delete,omitempty"`
}

// maxMutationEdges bounds a single mutation batch's insertions —
// like maxHeaderCount on the ingest side, a client request must not
// commission an arbitrarily large allocation.
const maxMutationEdges = 1 << 22

// StoreStats are the Store's counters, as served by /stats.
type StoreStats struct {
	// Graphs is the number of distinct graphs ingested.
	Graphs int `json:"graphs"`
	// Warm is how many of them are currently parsed in the LRU.
	Warm int `json:"warm"`
	// WarmCapacity is the LRU capacity.
	WarmCapacity int `json:"warmCapacity"`
	// Hits / Misses count Get lookups served from / outside the LRU.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts parsed graphs dropped from the LRU.
	Evictions int64 `json:"evictions"`
	// Reparses counts cold Gets that re-parsed from the retained source.
	Reparses int64 `json:"reparses"`
	// RetainedBytes is the raw bytes currently held for upload-backed
	// graphs; SourceEvictions counts uploads dropped to stay within the
	// retention budget.
	RetainedBytes   int64 `json:"retainedBytes"`
	SourceEvictions int64 `json:"sourceEvictions"`
	// WarmBytes approximates the heap held by warm parsed graphs (edge
	// list + CSR adjacency, per graph.Footprint).
	WarmBytes int64 `json:"warmBytes"`
	// Mutations counts successful Mutate derivations (re-deriving an
	// identical child counts; failed batches do not).
	Mutations int64 `json:"mutations"`
}

// DefaultMaxSourceBytes is the upload-retention budget NewStore applies
// when given maxSourceBytes <= 0.
const DefaultMaxSourceBytes = 1 << 30

// NewStore returns a store keeping at most capacity parsed graphs warm
// and at most maxSourceBytes of upload-backed raw bytes (<= 0 selects
// DefaultMaxSourceBytes).
func NewStore(capacity int, maxSourceBytes int64) *Store {
	if maxSourceBytes <= 0 {
		maxSourceBytes = DefaultMaxSourceBytes
	}
	s := &Store{sources: make(map[string]*graphSource), maxSourceBytes: maxSourceBytes}
	s.warm = newLRU[string, *graph.Graph](capacity, func(_ string, g *graph.Graph) {
		s.evictions++
		s.warmBytes -= g.Footprint()
	})
	return s
}

// hashID content-addresses a graph by its raw bytes AND the format they
// are parsed under. Some byte strings are valid in two formats and
// decode to different graphs (e.g. a "n m" header file read as plain vs
// METIS), so the format is part of the identity; auto-detection resolves
// to a concrete format before hashing, which keeps "auto" and an
// explicit matching format on the same ID.
func hashID(f graph.Format, data []byte) string {
	h := sha256.New()
	h.Write([]byte(f))
	h.Write([]byte{0})
	h.Write(data)
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// AddBytes ingests an uploaded graph. f selects the wire format
// (FormatAuto detects it). Re-adding identical bytes is idempotent and
// returns the existing entry.
func (s *Store) AddBytes(data []byte, f graph.Format) (GraphInfo, error) {
	return s.add(data, f, nil, "", "", nil)
}

// AddFile ingests a graph from a file on the server's filesystem. Only
// the path is retained; on a cold Get the file is re-read and its hash
// re-checked, so a file that changed on disk is reported rather than
// silently served under the old ID.
func (s *Store) AddFile(path string, f graph.Format) (GraphInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return GraphInfo{}, err
	}
	return s.add(data, f, nil, path, "", nil)
}

// Mutate derives a new graph version from parent by applying mut (all
// deletions, then all insertions — see Mutation), re-encodes the result
// in the plain wire format, and ingests it like an upload: the child is
// content-addressed, counts against the retention budget, and is warmed
// immediately with the derived graph itself (the encoding is hashed and
// retained, not parsed back). The returned info carries the parent link; the batch is
// retained so incremental jobs can replay it against the parent's
// cached decomposition.
func (s *Store) Mutate(parent string, mut Mutation) (GraphInfo, error) {
	if len(mut.Insert) > maxMutationEdges {
		return GraphInfo{}, fmt.Errorf("service: mutation inserts %d edges, limit %d", len(mut.Insert), maxMutationEdges)
	}
	pg, err := s.Get(parent)
	if err != nil {
		return GraphInfo{}, err
	}
	dg := dynamic.New(pg)
	for _, id := range mut.Delete {
		if err := dg.DeleteEdge(id); err != nil {
			return GraphInfo{}, fmt.Errorf("service: %w", err)
		}
	}
	for _, e := range mut.Insert {
		if _, err := dg.InsertEdge(e[0], e[1]); err != nil {
			return GraphInfo{}, fmt.Errorf("service: %w", err)
		}
	}
	dg.Freeze()
	var buf bytes.Buffer
	if err := graph.Encode(&buf, dg.Base()); err != nil {
		return GraphInfo{}, err
	}
	info, err := s.add(buf.Bytes(), graph.FormatPlain, dg.Base(), "", parent, &mut)
	if err == nil {
		s.mu.Lock()
		s.mutations++
		s.mu.Unlock()
	}
	return info, err
}

// MutationOf returns the parent version and mutation batch that derived
// id, if id was produced by Mutate (and the entry is still retained).
func (s *Store) MutationOf(id string) (parent string, mut Mutation, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	src, found := s.sources[id]
	if !found || src.mut == nil {
		return "", Mutation{}, false
	}
	return src.info.Parent, *src.mut, true
}

// add ingests data in format f. g is the graph data decodes to when the
// caller already holds it (Mutate, which encoded it), or nil to decode
// data here.
func (s *Store) add(data []byte, f graph.Format, g *graph.Graph, path, parent string, mut *Mutation) (GraphInfo, error) {
	format, err := resolveFormat(data, f)
	if err != nil {
		return GraphInfo{}, err
	}
	id := hashID(format, data)
	s.mu.Lock()
	if src, ok := s.sources[id]; ok {
		info, pl := src.info, s.persistLog
		s.mu.Unlock()
		return info, s.ensurePersisted(pl, src, data)
	}
	s.mu.Unlock()

	if g == nil {
		if g, err = graph.DecodeFormat(bytes.NewReader(data), format); err != nil {
			return GraphInfo{}, err
		}
	}
	info := GraphInfo{ID: id, N: g.N(), M: g.M(), Format: string(format), Bytes: int64(len(data)), Parent: parent}
	src := &graphSource{info: info, path: path, mut: mut}
	if path == "" {
		src.data = data
	}
	s.mu.Lock()
	if existing, ok := s.sources[id]; ok { // lost a race with an identical upload
		info, pl := existing.info, s.persistLog
		s.mu.Unlock()
		return info, s.ensurePersisted(pl, existing, data)
	}
	s.sources[id] = src
	s.warmPut(id, g)
	if path == "" {
		s.uploadOrder = append(s.uploadOrder, id)
		s.uploadBytes += int64(len(data))
		// Stay within the retention budget by forgetting the oldest
		// uploads — but never the one just added, even if it alone
		// exceeds the budget.
		for s.uploadBytes > s.maxSourceBytes && len(s.uploadOrder) > 1 {
			oldest := s.uploadOrder[0]
			s.uploadOrder = s.uploadOrder[1:]
			old, ok := s.sources[oldest]
			if !ok {
				continue
			}
			s.uploadBytes -= int64(len(old.data))
			delete(s.sources, oldest)
			if g, ok := s.warm.get(oldest); ok {
				s.warmBytes -= g.Footprint()
			}
			s.warm.remove(oldest)
			s.sourceEvictions++
		}
	}
	pl := s.persistLog
	s.mu.Unlock()
	return info, s.ensurePersisted(pl, src, data)
}

// ensurePersisted write-through-persists src unless it is already known
// durable. Every add path routes through here — including the
// duplicate-upload ones, because an identical re-upload must end up
// durable even when the original entry's persist attempt failed, or a
// retention sweep later removed its on-disk bytes (both leave
// src.persisted false). AppendGraph is idempotent for an existing
// content file and WAL replay is idempotent by ID, so callers racing
// here at worst append a redundant record.
//
// The append runs outside the store lock (each one fsyncs): the ack a
// client gets implies the graph is durable. A persist failure is
// surfaced as an error even though the in-memory entry stands — the
// graph is servable, but the durability contract was not met, and the
// flag stays false so a retry persists again.
func (s *Store) ensurePersisted(pl *persist.Log, src *graphSource, data []byte) error {
	if pl == nil {
		return nil
	}
	s.mu.Lock()
	need := !src.persisted
	info, mut := src.info, src.mut
	s.mu.Unlock()
	if !need {
		return nil
	}
	meta, err := persistMeta(info, mut)
	if err == nil {
		err = pl.AppendGraph(meta, data)
	}
	if err != nil {
		return fmt.Errorf("service: persisting graph %s: %w", info.ID, err)
	}
	s.mu.Lock()
	src.persisted = true
	s.mu.Unlock()
	return nil
}

// markPersisted records that these entries are already durable on disk
// without re-persisting them — recovery replays are, by construction.
func (s *Store) markPersisted(ids []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if src, ok := s.sources[id]; ok {
			src.persisted = true
		}
	}
}

// markUnpersisted clears the durability mark after a retention sweep
// removed these entries' graph files; the next identical upload runs
// the write-through again instead of skipping it.
func (s *Store) markUnpersisted(ids []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if src, ok := s.sources[id]; ok {
			src.persisted = false
		}
	}
}

// persistMeta converts a stored graph's identity to its durable record.
func persistMeta(info GraphInfo, mut *Mutation) (persist.GraphMeta, error) {
	meta := persist.GraphMeta{ID: info.ID, Format: info.Format, Parent: info.Parent}
	if mut != nil {
		raw, err := json.Marshal(mut)
		if err != nil {
			return meta, err
		}
		meta.Mutation = raw
	}
	return meta, nil
}

// exportPersist returns the durable metadata of every stored graph for a
// snapshot: upload-backed graphs in ingest order (parents precede the
// children derived from them), then file-backed graphs by ID.
func (s *Store) exportPersist() []persist.GraphMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]persist.GraphMeta, 0, len(s.sources))
	addMeta := func(src *graphSource) {
		if meta, err := persistMeta(src.info, src.mut); err == nil {
			out = append(out, meta)
		}
	}
	for _, id := range s.uploadOrder {
		if src, ok := s.sources[id]; ok {
			addMeta(src)
		}
	}
	var fileIDs []string
	for id, src := range s.sources {
		if src.path != "" {
			fileIDs = append(fileIDs, id)
		}
	}
	sort.Strings(fileIDs)
	for _, id := range fileIDs {
		addMeta(s.sources[id])
	}
	return out
}

// resolveFormat turns an auto format request into the concrete detected
// format (a cheap sniff of the first line, no full parse).
func resolveFormat(data []byte, f graph.Format) (graph.Format, error) {
	if f != "" && f != graph.FormatAuto {
		return f, nil
	}
	// Size the reader to peekLine's full 64 KiB lookahead: the default
	// 4 KiB bufio.Reader would truncate the sniff window and misjudge
	// uploads whose first meaningful line sits past (or straddles) 4 KiB.
	return graph.DetectFormat(bufio.NewReaderSize(bytes.NewReader(data), 1<<16))
}

// Info returns the metadata of a stored graph.
func (s *Store) Info(id string) (GraphInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	src, ok := s.sources[id]
	if !ok {
		return GraphInfo{}, false
	}
	return src.info, true
}

// Get returns the parsed graph for id, re-parsing from the retained
// source if it has been evicted from the warm set.
func (s *Store) Get(id string) (*graph.Graph, error) {
	s.mu.Lock()
	src, ok := s.sources[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w %q", ErrUnknownGraph, id)
	}
	if g, ok := s.warm.get(id); ok {
		s.hits++
		s.mu.Unlock()
		return g, nil
	}
	s.misses++
	s.mu.Unlock()

	// Re-parse outside the lock; a concurrent Get of the same cold graph
	// may duplicate the work, which is harmless.
	data := src.data
	format := graph.Format(src.info.Format)
	if src.path != "" {
		var err error
		if data, err = os.ReadFile(src.path); err != nil {
			return nil, fmt.Errorf("service: re-reading %s: %w", src.path, err)
		}
		if got := hashID(format, data); got != id {
			return nil, fmt.Errorf("service: %s changed on disk (now %s, stored as %s)", src.path, got, id)
		}
	}
	g, err := graph.DecodeFormat(bytes.NewReader(data), format)
	if err != nil {
		return nil, fmt.Errorf("service: re-parsing %q: %w", id, err)
	}
	s.mu.Lock()
	s.reparses++
	// Re-check the source under the lock: a concurrent budget eviction
	// may have dropped this graph, and warming an unreachable entry would
	// pin it in the LRU. The caller still gets g either way.
	if _, still := s.sources[id]; still {
		s.warmPut(id, g)
	}
	s.mu.Unlock()
	return g, nil
}

// SourceData returns a stored graph's raw bytes and concrete format —
// the pair that reproduces its content-addressed ID on any node, which
// is what the peer replication and graph-fill protocol transfers.
// File-backed sources are re-read and hash-verified like a cold Get.
func (s *Store) SourceData(id string) ([]byte, graph.Format, error) {
	s.mu.Lock()
	src, ok := s.sources[id]
	if !ok {
		s.mu.Unlock()
		return nil, "", fmt.Errorf("%w %q", ErrUnknownGraph, id)
	}
	data := src.data
	path := src.path
	format := graph.Format(src.info.Format)
	s.mu.Unlock()
	if path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, "", fmt.Errorf("service: re-reading %s: %w", path, err)
		}
		if got := hashID(format, data); got != id {
			return nil, "", fmt.Errorf("service: %s changed on disk (now %s, stored as %s)", path, got, id)
		}
	}
	return data, format, nil
}

// List returns the metadata of every stored graph, sorted by ID.
func (s *Store) List() []GraphInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GraphInfo, 0, len(s.sources))
	for _, src := range s.sources {
		out = append(out, src.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Graphs:          len(s.sources),
		Warm:            s.warm.len(),
		WarmCapacity:    s.warm.capacity,
		Hits:            s.hits,
		Misses:          s.misses,
		Evictions:       s.evictions,
		Reparses:        s.reparses,
		RetainedBytes:   s.uploadBytes,
		SourceEvictions: s.sourceEvictions,
		WarmBytes:       s.warmBytes,
		Mutations:       s.mutations,
	}
}

// readAll is io.ReadAll with a size cap, for upload bodies.
func readAll(r io.Reader, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("service: input exceeds %d bytes", limit)
	}
	return data, nil
}
