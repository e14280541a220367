package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzGossipMerge feeds an arbitrary POST /peer/gossip body to a node
// of the fleet {a, b, c} that already holds b's snapshot at seq 5. The
// node's own entry must stay its own, no member's seq may go down, and
// the map may hold fleet members only, each under its own ID. Plain go
// test replays the seed corpus in testdata/fuzz/FuzzGossipMerge (a valid
// exchange, a self overwrite, a stale seq, a mismatched ID, an unknown
// ID, a maximal seq, empty input and invalid JSON).
func FuzzGossipMerge(f *testing.F) {
	peers := []Peer{{ID: "a", Addr: "http://a:1"}, {ID: "b", Addr: "http://b:1"}, {ID: "c", Addr: "http://c:1"}}
	self := StatsSummary{JobsDone: 7}
	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := New(Config{NodeID: "a", Peers: peers, VirtualNodes: 4,
			SelfStats: func() StatsSummary { return self }})
		if err != nil {
			t.Fatal(err)
		}
		c.merge(map[string]NodeSnapshot{"b": {Node: NodeInfo{ID: "b"}, Seq: 5}})
		before := c.snapshotCopy()

		rec := httptest.NewRecorder()
		c.HandleGossip(rec, httptest.NewRequest(http.MethodPost, "/peer/gossip", bytes.NewReader(body)))

		after := c.snapshotCopy()
		if got := after["a"]; got.Node != c.NodeInfo() || got.Stats != self || got.Seq < before["a"].Seq {
			t.Fatalf("body %q: self entry %+v, want this node's own at seq >= %d", body, got, before["a"].Seq)
		}
		for id, snap := range before {
			if after[id].Seq < snap.Seq {
				t.Fatalf("body %q: %s's seq went from %d to %d", body, id, snap.Seq, after[id].Seq)
			}
		}
		for id, snap := range after {
			if (id != "a" && c.peers[id] == nil) || snap.Node.ID != id {
				t.Fatalf("body %q: map holds %q -> %+v, not a fleet member under its own ID", body, id, snap.Node)
			}
		}
	})
}
