// Package persist is the durability tier behind internal/service: an
// append-only, write-through on-disk layout that lets nwserve survive a
// restart — or a crash — with its content-addressed graph store, version
// lineage, and result cache intact.
//
// The layout under the data directory is the regeneration-point model:
//
//	graphs/<hex>     raw graph bytes, one file per content address
//	                 (the store ID "sha256:<hex>"); written once via
//	                 temp-file + fsync + rename, so a file either exists
//	                 completely or not at all, and re-writing the same
//	                 content is a no-op by construction
//	wal.log          the write-ahead log: CRC-framed records describing
//	                 every ingest (with its parent→child mutation batch,
//	                 for derived versions) and every computed result, in
//	                 commit order; each append is fsynced before the
//	                 request is acknowledged
//	snapshot.json    a periodic full checkpoint of the same state,
//	                 written atomically (temp + fsync + rename) and then
//	                 truncating the WAL — the regeneration point the WAL
//	                 replays forward from
//
// Recovery reads the snapshot (if any), replays the WAL over it —
// tolerating and truncating a torn record at the tail, the only damage
// a crash mid-append can cause — and hands internal/service an ordered
// list of graph records plus a result index to warm-restart its cache
// from. Because graph identity is the content hash, every recovered
// byte is verifiable, and replaying a record twice (snapshot + an
// untruncated WAL after a crash between the two steps) is idempotent.
//
// Retention: a checkpoint's sweep deletes graph files that its export
// left out (the store evicted or never knew them), then enforces an age
// bound and a byte budget oldest-first. The age and byte bounds apply to
// referenced files too — they deliberately trade durability for disk:
// a swept graph keeps serving from memory, but recovery will report it
// missing. Checkpoint runs export + snapshot + WAL truncation + sweep
// under a barrier that excludes concurrent appends, so a record that
// was fsynced (and acknowledged to a client) can never fall between
// the captured state and the truncated WAL.
package persist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	walName   = "wal.log"
	snapName  = "snapshot.json"
	graphsDir = "graphs"
	tmpPrefix = ".tmp-"

	// maxRecordBytes bounds a single WAL record; anything larger in the
	// framing is treated as tail corruption, not an allocation request.
	maxRecordBytes = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// GraphMeta is the durable identity of one stored graph: everything the
// store needs besides the raw bytes (which live in graphs/<hex>).
type GraphMeta struct {
	// ID is the store's content address, "sha256:<hex>".
	ID string `json:"id"`
	// Format is the wire format the bytes parse under.
	Format string `json:"format"`
	// Parent is the version this graph was derived from by mutation
	// (empty for direct ingests).
	Parent string `json:"parent,omitempty"`
	// Mutation is the service's mutation batch (JSON) that derived this
	// graph from Parent, retained so incremental jobs can replay it.
	Mutation json.RawMessage `json:"mutation,omitempty"`
}

// ResultRecord is one persisted result-cache entry.
type ResultRecord struct {
	// Key is the service's cache key.
	Key string `json:"key"`
	// Value is the JSON-encoded job result.
	Value json.RawMessage `json:"value"`
}

// record is one WAL entry.
type record struct {
	// Type is "graph" or "result".
	Type  string          `json:"t"`
	Graph *GraphMeta      `json:"g,omitempty"`
	Key   string          `json:"k,omitempty"`
	Value json.RawMessage `json:"v,omitempty"`
}

// snapshot is the checkpoint file's schema.
type snapshot struct {
	SavedAt time.Time      `json:"savedAt"`
	Graphs  []GraphMeta    `json:"graphs"`
	Results []ResultRecord `json:"results"`
}

// Stats are the Log's counters, for /metrics.
type Stats struct {
	// WALRecords counts records appended by this process.
	WALRecords int64
	// WALBytes is the WAL's current size.
	WALBytes int64
	// Snapshots counts snapshots written by this process.
	Snapshots int64
	// LastSnapshot is when the newest snapshot was written (zero if
	// none exists, by this process or a previous one).
	LastSnapshot time.Time
	// GraphFiles counts graph files written by this process.
	GraphFiles int64
	// SweptFiles counts graph files removed by retention sweeps.
	SweptFiles int64
	// Errors counts persistence operations that failed.
	Errors int64
}

// Log is an open persistence directory. All methods are safe for
// concurrent use. Recover must be called once, before any append.
type Log struct {
	dir string

	// barrier serializes appends (shared) against Checkpoint
	// (exclusive). Without it, an append fsynced between a checkpoint's
	// state capture and its WAL truncation would be in neither the
	// snapshot nor the WAL — an acked record silently lost on the next
	// restart. It also keeps AppendGraph's
	// file-exists-so-skip-the-write fast path from racing a concurrent
	// sweep's remove.
	barrier sync.RWMutex

	mu        sync.Mutex
	wal       *os.File
	walBytes  int64
	recovered bool
	stats     Stats
}

// Open creates (if needed) and opens the persistence layout under dir.
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(filepath.Join(dir, graphsDir), 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	l := &Log{dir: dir, wal: wal}
	if st, err := os.Stat(filepath.Join(dir, snapName)); err == nil {
		l.stats.LastSnapshot = st.ModTime()
	}
	return l, nil
}

// Close syncs and closes the WAL. The Log must not be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		return nil
	}
	err := l.wal.Sync()
	if cerr := l.wal.Close(); err == nil {
		err = cerr
	}
	l.wal = nil
	return err
}

// Stats returns a snapshot of the Log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.WALBytes = l.walBytes
	return st
}

// Recovered is what Recover reconstructs from disk.
type Recovered struct {
	// Graphs are the recovered graph records in original commit order
	// (snapshot order, then WAL order), each with its raw bytes loaded.
	Graphs []RecoveredGraph
	// Results is the persisted result index, oldest first; for a key
	// recorded more than once, the newest value wins and takes the
	// newest position (matching cache-insertion recency).
	Results []ResultRecord
	// WALRecords is how many intact WAL records were replayed.
	WALRecords int
	// WALTruncated reports that a damaged record was found in the WAL
	// and everything from it onward was cut off.
	WALTruncated bool
	// WALBytesDiscarded is how many bytes that cut dropped (0 when the
	// tail was clean). A torn tail from a crash mid-append discards less
	// than one frame.
	WALBytesDiscarded int64
	// WALCorruptMidLog reports that intact records existed past the
	// damage point — mid-log corruption (bit rot, external truncation or
	// overwrite), not the torn tail a crash leaves. Replay still stops at
	// the damage (a recovered state must be a prefix of the committed
	// one), but the discarded records were real acknowledged data, so
	// operators should treat this as data loss, not a crash artifact.
	WALCorruptMidLog bool
	// SnapshotAt is the snapshot's save time (zero if none existed).
	SnapshotAt time.Time
	// MissingGraphs counts graph records whose data file was absent or
	// unreadable (e.g. removed by a retention sweep after the record was
	// logged), or whose ID is not a content address and so names no
	// file in graphs/; they are dropped from Graphs.
	MissingGraphs int
}

// RecoveredGraph is one graph record with its bytes.
type RecoveredGraph struct {
	GraphMeta
	Data []byte
}

// Recover reads the snapshot and replays the WAL, returning the merged
// durable state. It also truncates a torn tail record so subsequent
// appends extend an intact log. It must be called exactly once, before
// any append.
func (l *Log) Recover() (*Recovered, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.recovered {
		return nil, errors.New("persist: Recover called twice")
	}
	l.recovered = true

	rec := &Recovered{}
	var graphs []GraphMeta
	graphIdx := make(map[string]bool)
	var results []ResultRecord
	resultIdx := make(map[string]int)

	addGraph := func(m GraphMeta) {
		if !graphIdx[m.ID] {
			graphIdx[m.ID] = true
			graphs = append(graphs, m)
		}
	}
	addResult := func(r ResultRecord) {
		if i, ok := resultIdx[r.Key]; ok {
			// Re-recorded key: newest value, newest recency.
			results[i].Key = "" // tombstone, compacted below
		}
		resultIdx[r.Key] = len(results)
		results = append(results, r)
	}

	if data, err := os.ReadFile(filepath.Join(l.dir, snapName)); err == nil {
		var snap snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			// snapshot.json is written atomically, so a parse failure is
			// real corruption, not a crash artifact: refuse to guess.
			return nil, fmt.Errorf("persist: corrupt snapshot: %w", err)
		}
		rec.SnapshotAt = snap.SavedAt
		for _, g := range snap.Graphs {
			addGraph(g)
		}
		for _, r := range snap.Results {
			addResult(r)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("persist: reading snapshot: %w", err)
	}

	n, dmg, err := replayWAL(l.wal, func(r record) {
		switch r.Type {
		case "graph":
			if r.Graph != nil {
				addGraph(*r.Graph)
			}
		case "result":
			addResult(ResultRecord{Key: r.Key, Value: r.Value})
		}
	})
	if err != nil {
		return nil, err
	}
	rec.WALRecords = n
	if dmg != nil {
		rec.WALTruncated = true
		rec.WALBytesDiscarded = dmg.discarded
		rec.WALCorruptMidLog = dmg.midLog
		if err := l.wal.Truncate(dmg.at); err != nil {
			return nil, fmt.Errorf("persist: truncating damaged WAL tail: %w", err)
		}
	}
	end, err := l.wal.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	l.walBytes = end

	for _, m := range graphs {
		if !validID(m.ID) { // its file name would come from outside graphs/
			rec.MissingGraphs++
			continue
		}
		data, err := os.ReadFile(l.graphPath(m.ID))
		if err != nil {
			rec.MissingGraphs++
			continue
		}
		rec.Graphs = append(rec.Graphs, RecoveredGraph{GraphMeta: m, Data: data})
	}
	for _, r := range results {
		if r.Key != "" {
			rec.Results = append(rec.Results, r)
		}
	}
	return rec, nil
}

// walDamage describes where and how WAL replay stopped early.
type walDamage struct {
	at        int64 // offset of the first damaged frame (truncate here)
	discarded int64 // bytes from at to EOF, dropped by the truncation
	midLog    bool  // an intact frame exists past the damage point
}

// replayWAL scans f from the start, invoking apply for every intact
// record. It returns the record count and, if a damaged record was
// found, a walDamage classifying it (nil for a clean tail).
func replayWAL(f *os.File, apply func(record)) (n int, dmg *walDamage, err error) {
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, nil, fmt.Errorf("persist: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, nil, fmt.Errorf("persist: %w", err)
	}
	var off int64
	hdr := make([]byte, 8)
	var payload []byte
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			if errors.Is(err, io.EOF) {
				return n, nil, nil // clean end
			}
			return n, classifyDamage(f, off), nil // torn header
		}
		size := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if size == 0 || size > maxRecordBytes {
			return n, classifyDamage(f, off), nil // nonsense length
		}
		if off+8+int64(size) > end {
			// Torn payload, found before a damaged length can make
			// the read below allocate up to maxRecordBytes.
			return n, classifyDamage(f, off), nil
		}
		if cap(payload) < int(size) {
			payload = make([]byte, size)
		}
		payload = payload[:size]
		if _, err := io.ReadFull(f, payload); err != nil {
			return n, classifyDamage(f, off), nil // torn payload
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return n, classifyDamage(f, off), nil // bit rot or torn write
		}
		var r record
		if err := json.Unmarshal(payload, &r); err != nil {
			return n, classifyDamage(f, off), nil
		}
		apply(r)
		n++
		off += 8 + int64(size)
	}
}

// classifyDamage sizes a replay failure at offset off: how many bytes
// truncating there discards, and whether an intact frame exists past
// the damage. A crash mid-append can only tear the final frame, so a
// valid later frame distinguishes real mid-log corruption from a crash
// artifact.
func classifyDamage(f *os.File, off int64) *walDamage {
	d := &walDamage{at: off}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil || end <= off {
		return d
	}
	d.discarded = end - off
	rest := make([]byte, end-off)
	if _, err := io.ReadFull(io.NewSectionReader(f, off, end-off), rest); err != nil {
		return d
	}
	// A frame could resume at any byte past the damaged one; accept the
	// first position whose length, checksum and payload all validate.
	for i := 1; i+8 <= len(rest); i++ {
		size := binary.LittleEndian.Uint32(rest[i : i+4])
		if size == 0 || size > maxRecordBytes {
			continue
		}
		frameEnd := i + 8 + int(size)
		if frameEnd > len(rest) {
			continue
		}
		payload := rest[i+8 : frameEnd]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[i+4:i+8]) {
			continue
		}
		var r record
		if json.Unmarshal(payload, &r) != nil {
			continue
		}
		d.midLog = true
		break
	}
	return d
}

// hexRE matches the hex digest part of a content address.
var hexRE = regexp.MustCompile(`^[0-9a-f]{8,128}$`)

// graphPath maps a store ID to its data file. IDs are "sha256:<hex>";
// the file is named by the hex digest alone.
func (l *Log) graphPath(id string) string {
	hex := strings.TrimPrefix(id, "sha256:")
	return filepath.Join(l.dir, graphsDir, hex)
}

// validID rejects IDs that do not look like content addresses — the
// filename comes from the ID, so this is also path-traversal hygiene.
func validID(id string) bool {
	return hexRE.MatchString(strings.TrimPrefix(id, "sha256:"))
}

// AppendGraph durably records one ingested graph: the raw bytes land in
// graphs/<hex> (atomically; a file already present for this content
// address is reused), then a WAL record with the meta (format, parent
// link, mutation batch) is appended and fsynced. When AppendGraph
// returns nil, the graph survives any crash. Re-appending an existing
// graph is idempotent, which callers use to restore durability for an
// entry whose file a retention sweep removed.
func (l *Log) AppendGraph(meta GraphMeta, data []byte) error {
	l.barrier.RLock()
	defer l.barrier.RUnlock()
	if !validID(meta.ID) {
		return l.fail(fmt.Errorf("persist: malformed graph ID %q", meta.ID))
	}
	path := l.graphPath(meta.ID)
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		if err := writeFileAtomic(path, data); err != nil {
			return l.fail(err)
		}
		l.mu.Lock()
		l.stats.GraphFiles++
		l.mu.Unlock()
	} else if err != nil {
		return l.fail(err)
	}
	return l.appendRecord(record{Type: "graph", Graph: &meta})
}

// AppendResult durably records one computed result under its cache key.
func (l *Log) AppendResult(key string, value json.RawMessage) error {
	l.barrier.RLock()
	defer l.barrier.RUnlock()
	return l.appendRecord(record{Type: "result", Key: key, Value: value})
}

// appendRecord frames, appends and fsyncs one WAL record.
func (l *Log) appendRecord(r record) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return l.fail(err)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[8:], payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		return errors.New("persist: log closed")
	}
	if !l.recovered {
		return errors.New("persist: append before Recover")
	}
	if _, err := l.wal.Write(frame); err != nil {
		l.stats.Errors++
		return fmt.Errorf("persist: WAL append: %w", err)
	}
	if err := l.wal.Sync(); err != nil {
		l.stats.Errors++
		return fmt.Errorf("persist: WAL sync: %w", err)
	}
	l.walBytes += int64(len(frame))
	l.stats.WALRecords++
	return nil
}

// Checkpoint atomically establishes a new regeneration point. While an
// exclusive barrier blocks every concurrent append, export is invoked
// to capture the caller's current state, that state is written as a
// durable snapshot, the WAL is truncated, and a retention sweep prunes
// the graph-file tier treating exactly the exported graphs as live
// (maxAge and maxBytes bound the files' age and total size, live files
// included; see sweepLocked). The barrier is what makes the cut
// sound: state capture and WAL truncation see the same history, so an
// append acked before the checkpoint is in the snapshot and an append
// acked after it is in the (fresh) WAL — never neither. swept, when
// non-nil, is called under the same barrier with the IDs of graph
// files the sweep removed, so the caller can mark them non-durable
// before appends resume.
func (l *Log) Checkpoint(export func() ([]GraphMeta, []ResultRecord), maxAge time.Duration, maxBytes int64, swept func(ids []string)) (removed int, err error) {
	l.barrier.Lock()
	defer l.barrier.Unlock()
	graphs, results := export()
	if err := l.snapshotLocked(graphs, results); err != nil {
		return 0, err
	}
	liveSet := make(map[string]bool, len(graphs))
	for _, g := range graphs {
		liveSet[g.ID] = true
	}
	ids, removed, err := l.sweepLocked(func(id string) bool { return liveSet[id] }, maxAge, maxBytes)
	if err != nil {
		return removed, err
	}
	if swept != nil && len(ids) > 0 {
		swept(ids)
	}
	return removed, nil
}

// snapshotLocked checkpoints the full state and truncates the WAL; the
// caller holds the write barrier, so no append runs meanwhile. The
// caller must pass a state at least as new as every append that has
// already returned, which Checkpoint does by construction. The step
// order is crash-safe: the snapshot is complete and durable before the
// WAL shrinks, and a crash between the two steps only means the next
// recovery replays records whose effects the snapshot already holds —
// replay is idempotent by graph ID and result key.
func (l *Log) snapshotLocked(graphs []GraphMeta, results []ResultRecord) error {
	snap := snapshot{SavedAt: time.Now().UTC(), Graphs: graphs, Results: results}
	data, err := json.Marshal(&snap)
	if err != nil {
		return l.fail(err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		return errors.New("persist: log closed")
	}
	if err := writeFileAtomic(filepath.Join(l.dir, snapName), data); err != nil {
		l.stats.Errors++
		return err
	}
	if err := l.wal.Truncate(0); err != nil {
		l.stats.Errors++
		return fmt.Errorf("persist: truncating WAL: %w", err)
	}
	if _, err := l.wal.Seek(0, io.SeekStart); err != nil {
		l.stats.Errors++
		return fmt.Errorf("persist: %w", err)
	}
	if err := l.wal.Sync(); err != nil {
		l.stats.Errors++
		return fmt.Errorf("persist: %w", err)
	}
	l.walBytes = 0
	l.stats.Snapshots++
	l.stats.LastSnapshot = snap.SavedAt
	return nil
}

// sweepLocked prunes the graph-file tier; the caller holds the write
// barrier, so no append runs meanwhile. Files whose ID the live
// predicate rejects are deleted (the store evicted or never knew them),
// then files older than maxAge (0 = no age bound) and, oldest first,
// files beyond the maxBytes budget (0 = no byte bound) are deleted too.
// The age and byte bounds apply to live files as well: they trade
// durability for disk. A swept file only bounds durability — recovery
// skips records whose bytes are gone; a running server keeps serving
// from memory. removedIDs lists the graph IDs whose files were deleted
// (stale temp files count toward removed but carry no ID).
func (l *Log) sweepLocked(live func(id string) bool, maxAge time.Duration, maxBytes int64) (removedIDs []string, removed int, err error) {
	dir := filepath.Join(l.dir, graphsDir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, l.fail(err)
	}
	type gfile struct {
		name  string
		size  int64
		mtime time.Time
	}
	var files []gfile
	var total int64
	now := time.Now()
	for _, e := range entries {
		name := e.Name()
		info, err := e.Info()
		if err != nil {
			continue
		}
		// Stale temp files are crash leftovers once they stop being young
		// enough to be a rename in progress.
		if strings.HasPrefix(name, tmpPrefix) {
			if now.Sub(info.ModTime()) > time.Minute {
				if os.Remove(filepath.Join(dir, name)) == nil {
					removed++
				}
			}
			continue
		}
		if !live("sha256:"+name) || (maxAge > 0 && now.Sub(info.ModTime()) > maxAge) {
			if os.Remove(filepath.Join(dir, name)) == nil {
				removed++
				removedIDs = append(removedIDs, "sha256:"+name)
			}
			continue
		}
		files = append(files, gfile{name, info.Size(), info.ModTime()})
		total += info.Size()
	}
	if maxBytes > 0 && total > maxBytes {
		sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
		for _, f := range files {
			if total <= maxBytes {
				break
			}
			if os.Remove(filepath.Join(dir, f.name)) == nil {
				removed++
				removedIDs = append(removedIDs, "sha256:"+f.name)
				total -= f.size
			}
		}
	}
	l.mu.Lock()
	l.stats.SweptFiles += int64(removed)
	l.mu.Unlock()
	return removedIDs, removed, nil
}

// fail counts an error against the stats and returns it.
func (l *Log) fail(err error) error {
	l.mu.Lock()
	l.stats.Errors++
	l.mu.Unlock()
	return err
}

// writeFileAtomic writes data so that path either holds all of it or is
// untouched: temp file in the same directory, fsync, rename, fsync the
// directory so the rename itself is durable.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tmpPrefix+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}
