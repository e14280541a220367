package persist_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"nwforest/internal/persist"
)

// fakeID builds a plausible content address for test payloads.
func fakeID(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

func openRecovered(t *testing.T, dir string) (*persist.Log, *persist.Recovered) {
	t.Helper()
	l, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	rec, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return l, rec
}

func TestRoundTripGraphsAndResults(t *testing.T) {
	dir := t.TempDir()
	l, rec := openRecovered(t, dir)
	if len(rec.Graphs) != 0 || len(rec.Results) != 0 || rec.WALTruncated {
		t.Fatalf("fresh dir recovered non-empty state: %+v", rec)
	}

	var ids []string
	for i := 0; i < 3; i++ {
		data := []byte(fmt.Sprintf("3 1\n0 %d\n", i%3))
		id := fakeID(data)
		ids = append(ids, id)
		meta := persist.GraphMeta{ID: id, Format: "plain"}
		if i == 2 {
			meta.Parent = ids[0]
			meta.Mutation = json.RawMessage(`{"insert":[[0,1]]}`)
		}
		if err := l.AppendGraph(meta, data); err != nil {
			t.Fatal(err)
		}
	}
	// Idempotent re-append of an existing graph.
	if err := l.AppendGraph(persist.GraphMeta{ID: ids[0], Format: "plain"}, []byte("3 1\n0 0\n")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendResult("k1", json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendResult("k2", json.RawMessage(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	// Re-recording a key keeps the newest value.
	if err := l.AppendResult("k1", json.RawMessage(`{"v":3}`)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, rec2 := openRecovered(t, dir)
	if len(rec2.Graphs) != 3 {
		t.Fatalf("recovered %d graphs, want 3 (dup collapsed)", len(rec2.Graphs))
	}
	for i, g := range rec2.Graphs {
		if g.ID != ids[i] {
			t.Fatalf("graph %d recovered out of order: %s != %s", i, g.ID, ids[i])
		}
		if fakeID(g.Data) != g.ID {
			t.Fatalf("graph %d bytes do not match their content address", i)
		}
	}
	if rec2.Graphs[2].Parent != ids[0] || string(rec2.Graphs[2].Mutation) != `{"insert":[[0,1]]}` {
		t.Fatalf("lineage lost: %+v", rec2.Graphs[2])
	}
	if len(rec2.Results) != 2 {
		t.Fatalf("recovered %d results, want 2", len(rec2.Results))
	}
	// k1 was re-recorded last, so it takes the newest position.
	if rec2.Results[0].Key != "k2" || rec2.Results[1].Key != "k1" ||
		string(rec2.Results[1].Value) != `{"v":3}` {
		t.Fatalf("result index wrong: %+v", rec2.Results)
	}
	if rec2.WALTruncated {
		t.Fatal("clean WAL reported as truncated")
	}
}

func TestSnapshotTruncatesWALAndMerges(t *testing.T) {
	dir := t.TempDir()
	l, _ := openRecovered(t, dir)
	dataA := []byte("2 1\n0 1\n")
	idA := fakeID(dataA)
	if err := l.AppendGraph(persist.GraphMeta{ID: idA, Format: "plain"}, dataA); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendResult("ka", json.RawMessage(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Checkpoint(func() ([]persist.GraphMeta, []persist.ResultRecord) {
		return []persist.GraphMeta{{ID: idA, Format: "plain"}},
			[]persist.ResultRecord{{Key: "ka", Value: json.RawMessage(`{"a":1}`)}}
	}, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.WALBytes != 0 || st.Snapshots != 1 || st.LastSnapshot.IsZero() {
		t.Fatalf("post-snapshot stats %+v", st)
	}
	// Post-snapshot appends land in the (now empty) WAL.
	dataB := []byte("2 1\n1 0\n")
	idB := fakeID(dataB)
	if err := l.AppendGraph(persist.GraphMeta{ID: idB, Format: "plain", Parent: idA}, dataB); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, rec := openRecovered(t, dir)
	if rec.SnapshotAt.IsZero() {
		t.Fatal("snapshot time not recovered")
	}
	if len(rec.Graphs) != 2 || rec.Graphs[0].ID != idA || rec.Graphs[1].ID != idB {
		t.Fatalf("snapshot+WAL merge wrong: %+v", rec.Graphs)
	}
	if rec.WALRecords != 1 {
		t.Fatalf("replayed %d WAL records, want 1 (post-snapshot only)", rec.WALRecords)
	}
	if len(rec.Results) != 1 || rec.Results[0].Key != "ka" {
		t.Fatalf("results lost across snapshot: %+v", rec.Results)
	}
}

// TestTornTailIsToleratedAtEveryOffset is the WAL's crash-safety core:
// whatever byte offset a crash truncates the log at, recovery must
// yield an intact prefix of the appended records and leave the log
// appendable.
func TestTornTailIsToleratedAtEveryOffset(t *testing.T) {
	master := t.TempDir()
	l, _ := openRecovered(t, master)
	const n = 6
	var ids []string
	for i := 0; i < n; i++ {
		data := []byte(fmt.Sprintf("8 1\n0 %d\n", i+1))
		id := fakeID(data)
		ids = append(ids, id)
		if err := l.AppendGraph(persist.GraphMeta{ID: id, Format: "plain"}, data); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	walData, err := os.ReadFile(filepath.Join(master, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}

	for off := 0; off <= len(walData); off += 7 {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(master)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), walData[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rec := openRecovered(t, dir)
		if rec.WALRecords > n {
			t.Fatalf("offset %d: recovered %d records from %d appends", off, rec.WALRecords, n)
		}
		for i, g := range rec.Graphs {
			if g.ID != ids[i] {
				t.Fatalf("offset %d: recovery is not a prefix: graph %d is %s, want %s", off, i, g.ID, ids[i])
			}
		}
		// A cut exactly on a frame boundary is indistinguishable from a
		// clean shutdown; anywhere else must be reported as a torn tail —
		// never as mid-log corruption, and discarding less than one frame.
		frameLen := len(walData) / n
		if wantTorn := off%frameLen != 0; wantTorn != rec.WALTruncated {
			t.Fatalf("offset %d: WALTruncated=%v, want %v", off, rec.WALTruncated, wantTorn)
		}
		if rec.WALCorruptMidLog {
			t.Fatalf("offset %d: torn tail misreported as mid-log corruption", off)
		}
		if rec.WALTruncated {
			if rec.WALBytesDiscarded <= 0 || rec.WALBytesDiscarded >= int64(frameLen) {
				t.Fatalf("offset %d: discarded %d bytes, want within (0, %d)", off, rec.WALBytesDiscarded, frameLen)
			}
		} else if rec.WALBytesDiscarded != 0 {
			t.Fatalf("offset %d: clean recovery discarded %d bytes", off, rec.WALBytesDiscarded)
		}
		// The recovered log must accept new appends.
		extra := []byte("5 1\n0 4\n")
		if err := l2.AppendGraph(persist.GraphMeta{ID: fakeID(extra), Format: "plain"}, extra); err != nil {
			t.Fatalf("offset %d: append after recovery: %v", off, err)
		}
		l2.Close()
		_, rec3 := openRecovered(t, dir)
		if len(rec3.Graphs) != rec.WALRecords+1 {
			t.Fatalf("offset %d: %d graphs after re-recovery, want %d", off, len(rec3.Graphs), rec.WALRecords+1)
		}
	}
}

// TestDamagedLengthIsNotAnAllocation replays a frame header that claims
// a payload of almost maxRecordBytes in a WAL of a few bytes: a torn
// tail, reported without allocating the claimed size.
func TestDamagedLengthIsNotAnAllocation(t *testing.T) {
	dir := t.TempDir()
	wal := binary.LittleEndian.AppendUint32(nil, 1<<30-1)
	wal = append(wal, 0, 0, 0, 0, '{', '}')
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, rec := openRecovered(t, dir)
	runtime.ReadMemStats(&after)
	if !rec.WALTruncated || rec.WALBytesDiscarded != int64(len(wal)) {
		t.Fatalf("recovery %+v, want the whole %d-byte WAL cut as a torn tail", rec, len(wal))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("recovery allocated %d bytes for a %d-byte WAL", grew, len(wal))
	}
}

func TestCorruptMiddleRecordDropsTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openRecovered(t, dir)
	for i := 0; i < 3; i++ {
		data := []byte(fmt.Sprintf("3 1\n0 %d\n", i%3))
		if err := l.AppendGraph(persist.GraphMeta{ID: fakeID(data), Format: "plain"}, data); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := filepath.Join(dir, "wal.log")
	walData, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the middle record.
	walData[len(walData)/2] ^= 0xff
	if err := os.WriteFile(path, walData, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := openRecovered(t, dir)
	if !rec.WALTruncated {
		t.Fatal("corrupt record not reported as truncation")
	}
	if len(rec.Graphs) >= 3 {
		t.Fatalf("recovered %d graphs past a corrupt record", len(rec.Graphs))
	}
	// Intact records followed the damage, so this is mid-log corruption
	// (real data loss), not a crash's torn tail, and the loss is sized.
	if !rec.WALCorruptMidLog {
		t.Fatal("mid-log corruption reported as a plain torn tail")
	}
	if rec.WALBytesDiscarded <= int64(len(walData))/3 {
		t.Fatalf("discarded %d bytes, want the damaged record plus the intact one after it", rec.WALBytesDiscarded)
	}
}

func TestSweepRetention(t *testing.T) {
	dir := t.TempDir()
	l, _ := openRecovered(t, dir)
	var ids []string
	for i := 0; i < 4; i++ {
		data := []byte(fmt.Sprintf("9 1\n0 %d\n", i+1))
		id := fakeID(data)
		ids = append(ids, id)
		if err := l.AppendGraph(persist.GraphMeta{ID: id, Format: "plain"}, data); err != nil {
			t.Fatal(err)
		}
	}
	// Make files distinguishably old for the age/byte sweeps.
	for i, id := range ids {
		p := filepath.Join(dir, "graphs", id[len("sha256:"):])
		mt := time.Now().Add(-time.Duration(len(ids)-i) * time.Hour)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}

	// export snapshots the given graphs, and its checkpoint's sweep
	// treats exactly them as live. Steps 2 and 3 export all four, so the
	// last snapshot lists every graph, swept or not.
	export := func(keep []string) func() ([]persist.GraphMeta, []persist.ResultRecord) {
		return func() ([]persist.GraphMeta, []persist.ResultRecord) {
			var graphs []persist.GraphMeta
			for _, id := range keep {
				graphs = append(graphs, persist.GraphMeta{ID: id, Format: "plain"})
			}
			return graphs, nil
		}
	}
	// 1: dead IDs are removed.
	removed, err := l.Checkpoint(export(ids[1:]), 0, 0, nil)
	if err != nil || removed != 1 {
		t.Fatalf("dead sweep removed %d (%v), want 1", removed, err)
	}
	// 2: age bound removes the oldest survivors (ids[1] is now ~3h old).
	removed, err = l.Checkpoint(export(ids), 150*time.Minute, 0, nil)
	if err != nil || removed != 1 {
		t.Fatalf("age sweep removed %d (%v), want 1", removed, err)
	}
	// 3: byte budget removes oldest-first down to the budget. Two 8-byte
	// files remain; a 9-byte budget keeps only the newest.
	removed, err = l.Checkpoint(export(ids), 0, 9, nil)
	if err != nil || removed != 1 {
		t.Fatalf("byte sweep removed %d (%v), want 1", removed, err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "graphs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != ids[3][len("sha256:"):] {
		t.Fatalf("survivors %v, want newest only", entries)
	}
	if st := l.Stats(); st.SweptFiles != 3 {
		t.Fatalf("SweptFiles %d, want 3", st.SweptFiles)
	}
	l.Close()
	// Recovery skips the swept graphs instead of failing.
	_, rec := openRecovered(t, dir)
	if len(rec.Graphs) != 1 || rec.MissingGraphs != 3 {
		t.Fatalf("post-sweep recovery: %d graphs, %d missing; want 1/3", len(rec.Graphs), rec.MissingGraphs)
	}
}

// TestCheckpointLosesNoAckedAppend is the barrier's regression test:
// appenders that mirror the service's write path (register in shared
// state, then append, then treat the nil return as the ack) run
// concurrently with repeated checkpoints whose export reads that shared
// state. Every acked append must survive recovery — without the
// exclusive barrier, an append landing between a checkpoint's export
// and its WAL truncation would be in neither the snapshot nor the WAL.
func TestCheckpointLosesNoAckedAppend(t *testing.T) {
	dir := t.TempDir()
	l, _ := openRecovered(t, dir)

	var mu sync.Mutex
	state := make(map[string]persist.GraphMeta) // the "store": entries registered before their append
	acked := make(map[string]bool)              // appends whose AppendGraph returned nil

	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				data := []byte(fmt.Sprintf("7 1\n%d %d\n", w, i))
				meta := persist.GraphMeta{ID: fakeID(data), Format: "plain"}
				mu.Lock()
				state[meta.ID] = meta
				mu.Unlock()
				if err := l.AppendGraph(meta, data); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked[meta.ID] = true
				mu.Unlock()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if _, err := l.Checkpoint(func() ([]persist.GraphMeta, []persist.ResultRecord) {
			mu.Lock()
			defer mu.Unlock()
			graphs := make([]persist.GraphMeta, 0, len(state))
			for _, m := range state {
				graphs = append(graphs, m)
			}
			return graphs, nil
		}, 0, 0, nil); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	l.Close()

	_, rec := openRecovered(t, dir)
	recovered := make(map[string]bool, len(rec.Graphs))
	for _, g := range rec.Graphs {
		recovered[g.ID] = true
	}
	for id := range acked {
		if !recovered[id] {
			t.Fatalf("acked graph %s lost across checkpoint (recovered %d of %d)", id, len(recovered), len(acked))
		}
	}
}

// TestCheckpointSweepsAndReportsIDs: a checkpoint's sweep treats
// exactly the exported graphs as live, and the swept callback receives
// the IDs it removed — under the same barrier, so the caller can clear
// durability marks before appends resume.
func TestCheckpointSweepsAndReportsIDs(t *testing.T) {
	dir := t.TempDir()
	l, _ := openRecovered(t, dir)
	dataA, dataB := []byte("4 1\n0 1\n"), []byte("4 1\n0 2\n")
	metaA := persist.GraphMeta{ID: fakeID(dataA), Format: "plain"}
	metaB := persist.GraphMeta{ID: fakeID(dataB), Format: "plain"}
	for _, ap := range []struct {
		m persist.GraphMeta
		d []byte
	}{{metaA, dataA}, {metaB, dataB}} {
		if err := l.AppendGraph(ap.m, ap.d); err != nil {
			t.Fatal(err)
		}
	}
	var swept []string
	removed, err := l.Checkpoint(func() ([]persist.GraphMeta, []persist.ResultRecord) {
		return []persist.GraphMeta{metaA}, nil // B is no longer live
	}, 0, 0, func(ids []string) { swept = append(swept, ids...) })
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || len(swept) != 1 || swept[0] != metaB.ID {
		t.Fatalf("removed=%d swept=%v, want exactly %s", removed, swept, metaB.ID)
	}
	if _, err := os.Stat(filepath.Join(dir, "graphs", metaB.ID[len("sha256:"):])); !os.IsNotExist(err) {
		t.Fatalf("swept graph file still present (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "graphs", metaA.ID[len("sha256:"):])); err != nil {
		t.Fatalf("live graph file swept: %v", err)
	}
	l.Close()
	_, rec := openRecovered(t, dir)
	if len(rec.Graphs) != 1 || rec.Graphs[0].ID != metaA.ID {
		t.Fatalf("post-checkpoint recovery %+v, want only %s", rec.Graphs, metaA.ID)
	}
}

func TestAppendBeforeRecoverAndBadIDRejected(t *testing.T) {
	l, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendResult("k", json.RawMessage(`1`)); err == nil {
		t.Fatal("append before Recover must fail")
	}
	if _, err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendGraph(persist.GraphMeta{ID: "sha256:../../etc/passwd", Format: "plain"}, []byte("x")); err == nil {
		t.Fatal("path-traversal ID must be rejected")
	}
	if _, err := l.Recover(); err == nil {
		t.Fatal("second Recover must fail")
	}
}
