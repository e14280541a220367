package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testCluster(t *testing.T, id string, peers []Peer, mutate func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		NodeID:           id,
		Peers:            peers,
		VirtualNodes:     32,
		HealthInterval:   50 * time.Millisecond,
		GossipInterval:   50 * time.Millisecond,
		FailureThreshold: 2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%s): %v", id, err)
	}
	return c
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers(" a=http://x:1 , b=http://y:2,")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0].ID != "a" || peers[1].Addr != "http://y:2" {
		t.Fatalf("got %+v", peers)
	}
	for _, bad := range []string{"", "a", "=http://x", "a=", "a=x:1"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q): want error", bad)
		}
	}
}

func TestNewRequiresSelf(t *testing.T) {
	_, err := New(Config{NodeID: "a", Peers: []Peer{{ID: "b", Addr: "http://x:1"}}})
	if err == nil {
		t.Fatal("want error when membership lacks self")
	}
}

// TestRouteFailover walks the routing table as peers die: the owner
// first, then the ring successor, then self when everyone is dead.
func TestRouteFailover(t *testing.T) {
	peers := []Peer{
		{ID: "a", Addr: "http://a:1"},
		{ID: "b", Addr: "http://b:1"},
		{ID: "c", Addr: "http://c:1"},
	}
	c := testCluster(t, "a", peers, nil)

	// Find a key owned by a non-self node so the failover chain is
	// interesting from node a's perspective.
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("sha256:%064x", i)
		if c.ring.Owner(key) == "b" {
			break
		}
	}
	if p, self := c.Route(key); self || p.ID != "b" {
		t.Fatalf("Route = %+v self=%v, want owner b", p, self)
	}

	// Kill b: the route must move to the ring successor, never error.
	for i := 0; i < c.cfg.FailureThreshold; i++ {
		c.NoteFailure("b")
	}
	p, self := c.Route(key)
	want := ""
	for _, s := range c.ring.Successors(key, 3)[1:] {
		if s != "b" {
			want = s
			break
		}
	}
	if want == "a" {
		if !self {
			t.Fatalf("Route after b down = %+v, want self", p)
		}
	} else if self || p.ID != want {
		t.Fatalf("Route after b down = %+v self=%v, want %s", p, self, want)
	}

	// Kill everyone: routing degrades to local compute.
	for _, id := range []string{"b", "c"} {
		for i := 0; i < c.cfg.FailureThreshold; i++ {
			c.NoteFailure(id)
		}
	}
	if _, self := c.Route(key); !self {
		t.Fatal("all peers dead: Route must fall back to self")
	}

	// A success resurrects the peer.
	c.noteSuccess("b")
	if p, self := c.Route(key); self || p.ID != "b" {
		t.Fatalf("after revival Route = %+v self=%v, want b", p, self)
	}
}

// TestGossipMerge pins the per-origin sequence rule: higher Seq wins,
// lower is ignored, a node's own entry is never overwritten, and only
// fleet members are merged.
func TestGossipMerge(t *testing.T) {
	peers := []Peer{{ID: "a", Addr: "http://a:1"}, {ID: "b", Addr: "http://b:1"}}
	c := testCluster(t, "a", peers, nil)

	c.merge(map[string]NodeSnapshot{
		"b": {Node: NodeInfo{ID: "b"}, Seq: 5, Stats: StatsSummary{JobsDone: 5}},
	})
	c.merge(map[string]NodeSnapshot{
		"b": {Node: NodeInfo{ID: "b"}, Seq: 3, Stats: StatsSummary{JobsDone: 3}},
		"a": {Node: NodeInfo{ID: "a"}, Seq: 999, Stats: StatsSummary{JobsDone: 999}},
		"x": {Node: NodeInfo{ID: "y"}, Seq: 1}, // id mismatch: dropped
		"z": {Node: NodeInfo{ID: "z"}, Seq: 1}, // not in the fleet: dropped
	})
	snaps := c.snapshotCopy()
	if snaps["b"].Stats.JobsDone != 5 {
		t.Fatalf("stale gossip overwrote b: %+v", snaps["b"])
	}
	if snaps["a"].Stats.JobsDone == 999 {
		t.Fatal("gossip overwrote self entry")
	}
	if _, ok := snaps["x"]; ok {
		t.Fatal("merged snapshot with mismatched node id")
	}
	if _, ok := snaps["z"]; ok {
		t.Fatal("merged snapshot of a node outside the fleet")
	}
	c.merge(map[string]NodeSnapshot{
		"b": {Node: NodeInfo{ID: "b"}, Seq: 9, Stats: StatsSummary{JobsDone: 9}},
	})
	if got := c.snapshotCopy()["b"].Stats.JobsDone; got != 9 {
		t.Fatalf("newer gossip not applied: jobsDone=%d", got)
	}
}

// TestGossipExchange runs two real clusters against httptest servers
// and checks stats flow both ways through one push-pull round, then
// show up in FleetView.
func TestGossipExchange(t *testing.T) {
	var aDone, bDone atomic.Int64
	aDone.Store(11)
	bDone.Store(22)

	mkServer := func(c **Cluster) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /peer/gossip", func(w http.ResponseWriter, r *http.Request) { (*c).HandleGossip(w, r) })
		mux.HandleFunc("GET /peer/ping", func(w http.ResponseWriter, r *http.Request) { (*c).HandlePing(w, r) })
		return httptest.NewServer(mux)
	}
	var ca, cb *Cluster
	sa := mkServer(&ca)
	defer sa.Close()
	sb := mkServer(&cb)
	defer sb.Close()

	peers := []Peer{{ID: "a", Addr: sa.URL}, {ID: "b", Addr: sb.URL}}
	ca = testCluster(t, "a", peers, func(cfg *Config) {
		cfg.SelfStats = func() StatsSummary { return StatsSummary{JobsDone: aDone.Load()} }
	})
	cb = testCluster(t, "b", peers, func(cfg *Config) {
		cfg.SelfStats = func() StatsSummary { return StatsSummary{JobsDone: bDone.Load()} }
	})

	// One manual round from a: a pushes its map to b, pulls b's back.
	ca.gossipRound()

	for _, tc := range []struct {
		c    *Cluster
		peer string
		want int64
	}{{ca, "b", 22}, {cb, "a", 11}} {
		snap, ok := tc.c.snapshotCopy()[tc.peer]
		if !ok || snap.Stats.JobsDone != tc.want {
			t.Fatalf("node %s view of %s: %+v (ok=%v), want jobsDone=%d",
				tc.c.cfg.NodeID, tc.peer, snap, ok, tc.want)
		}
	}

	fv := ca.FleetView()
	if fv.Self != "a" || len(fv.Nodes) != 2 {
		t.Fatalf("FleetView = %+v", fv)
	}
	for _, n := range fv.Nodes {
		if n.ID == "b" && (n.Stats.JobsDone != 22 || !n.Alive) {
			t.Fatalf("FleetView b = %+v", n)
		}
		if n.ID == "a" && (!n.Self || n.Stats.JobsDone != 11) {
			t.Fatalf("FleetView a = %+v", n)
		}
	}
}

// TestHealthLoop runs the real loops: a peer that stops answering goes
// dead within a few intervals, and 503 (draining) counts as down.
func TestHealthLoop(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	var cb *Cluster
	mux := http.NewServeMux()
	mux.HandleFunc("GET /peer/ping", func(w http.ResponseWriter, r *http.Request) { cb.HandlePing(w, r) })
	mux.HandleFunc("POST /peer/gossip", func(w http.ResponseWriter, r *http.Request) { cb.HandleGossip(w, r) })
	sb := httptest.NewServer(mux)
	defer sb.Close()

	peers := []Peer{{ID: "a", Addr: "http://127.0.0.1:1"}, {ID: "b", Addr: sb.URL}}
	cb = testCluster(t, "b", peers, func(cfg *Config) {
		cfg.Ready = func() bool { return ready.Load() }
	})
	ca := testCluster(t, "a", peers, nil)
	ca.Start()
	defer ca.Stop()

	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("timeout waiting for %s", what)
	}
	waitFor(func() bool { return ca.Stats().PeersAlive == 1 }, "b alive")

	ready.Store(false) // b starts draining: pings answer 503
	waitFor(func() bool { return ca.Stats().PeersAlive == 0 }, "b routed around while draining")

	ready.Store(true)
	waitFor(func() bool { return ca.Stats().PeersAlive == 1 }, "b revived")
}

func TestReadBounded(t *testing.T) {
	for _, tc := range []struct {
		body    string
		wantErr bool
	}{{"", false}, {"abc", false}, {"abcd", false}, {"abcde", true}, {strings.Repeat("x", 1<<16), true}} {
		data, err := readBounded(strings.NewReader(tc.body), 4)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%d-byte body read as %q, want an error past 4 bytes", len(tc.body), data)
			}
		} else if err != nil || string(data) != tc.body {
			t.Errorf("%q read as %q, %v", tc.body, data, err)
		}
	}
}
