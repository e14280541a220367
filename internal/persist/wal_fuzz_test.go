package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzGraphHex names the one graph file in FuzzWALReplay's data
// directory; the seed corpus's valid graph records point at it.
const fuzzGraphHex = "0123456789abcdef"

// FuzzWALReplay recovers a data directory whose wal.log is the input.
// Recovery must not panic; it must cut the log to a prefix of the input
// that a second open replays with no damage and the same records; and
// it must recover no graph record whose ID is not a content address.
// A graph file's name comes from its ID, and the directory holds a
// file beside graphs/ that "sha256:../outside" would name. Plain go
// test replays the seed corpus in testdata/fuzz/FuzzWALReplay: valid
// graph and result frames, torn, corrupt, zero- and huge-length frames,
// and CRC-valid records naming files outside graphs/.
func FuzzWALReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, graphsDir), 0o755); err != nil {
			t.Fatal(err)
		}
		for path, data := range map[string][]byte{
			filepath.Join(dir, graphsDir, fuzzGraphHex): []byte("2 1\n0 1\n"),
			filepath.Join(dir, "outside"):               []byte("2 1\n0 1\n"),
			filepath.Join(dir, walName):                 wal,
		} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		first := recoverDir(t, dir)
		kept, err := os.ReadFile(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(wal, kept) || first.WALTruncated != (len(kept) < len(wal)) ||
			first.WALBytesDiscarded != int64(len(wal)-len(kept)) {
			t.Fatalf("recovery kept %d of %d WAL bytes (truncated %v, %d discarded), want a prefix cut exactly at the damage",
				len(kept), len(wal), first.WALTruncated, first.WALBytesDiscarded)
		}
		second := recoverDir(t, dir)
		if second.WALTruncated || second.WALRecords != first.WALRecords || second.MissingGraphs != first.MissingGraphs ||
			!reflect.DeepEqual(second.Graphs, first.Graphs) || !reflect.DeepEqual(second.Results, first.Results) {
			t.Fatalf("second recovery %+v differs from the first %+v", second, first)
		}
		for _, g := range first.Graphs {
			if !validID(g.ID) {
				t.Fatalf("recovered graph record %q, which is not a content address", g.ID)
			}
		}
	})
}

// recoverDir opens dir and recovers it.
func recoverDir(t *testing.T, dir string) *Recovered {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return rec
}
