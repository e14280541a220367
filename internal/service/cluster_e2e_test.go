package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nwforest"
	"nwforest/internal/cluster"
	"nwforest/internal/gen"
	"nwforest/internal/graph"
)

// clusterNode is one member of an in-process test fleet: a real
// Service behind a real TCP listener, joined to the others by a real
// Cluster. Everything flows over actual HTTP, exactly like the CI
// smoke test but in-process and race-detectable.
type clusterNode struct {
	id   string
	base string
	svc  *Service
	clu  *cluster.Cluster
	srv  *http.Server
	ln   net.Listener
}

// kill simulates a node death: the listener and all connections drop
// without any drain handshake. Safe to call twice.
func (n *clusterNode) kill() {
	n.srv.Close()
	n.clu.Stop()
}

// startTestCluster brings up a size-node fleet. Listeners are bound
// first so the full membership (with real addresses) is known before
// any Cluster is built.
func startTestCluster(t *testing.T, size int) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, size)
	peers := make([]cluster.Peer, size)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &clusterNode{
			id:   fmt.Sprintf("node-%d", i),
			base: "http://" + ln.Addr().String(),
			ln:   ln,
		}
		peers[i] = cluster.Peer{ID: nodes[i].id, Addr: nodes[i].base}
	}
	for _, n := range nodes {
		n.svc = newTestService(t, Config{Workers: 2})
		clu, err := cluster.New(cluster.Config{
			NodeID:         n.id,
			Peers:          peers,
			VirtualNodes:   32,
			HealthInterval: 100 * time.Millisecond,
			GossipInterval: 100 * time.Millisecond,
			SelfStats:      n.svc.StatsSummary,
			Ready:          n.svc.Ready,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.clu = clu
		n.svc.AttachCluster(clu)
		n.srv = &http.Server{Handler: NewHTTPHandler(n.svc)}
		node := n
		go node.srv.Serve(node.ln) //nolint:errcheck
		clu.Start()
		t.Cleanup(node.kill)
	}
	return nodes
}

// clusterSubmit posts a job spec to base and follows it to its
// terminal snapshot.
func clusterSubmit(t *testing.T, base string, spec []byte) JobSnapshot {
	t.Helper()
	var snap JobSnapshot
	code := doJSON(t, "POST", base+"/jobs", spec, "application/json", &snap)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("POST %s/jobs -> %d", base, code)
	}
	if !snap.State.terminal() {
		if code := doJSON(t, "GET", base+"/jobs/"+snap.ID+"?wait=30s", nil, "", &snap); code != http.StatusOK {
			t.Fatalf("GET %s/jobs/%s -> %d", base, snap.ID, code)
		}
	}
	return snap
}

// TestClusterEndToEnd is the whole fleet story over real sockets:
// upload via one node, compute via another, observe a third answer
// the identical request bit-identically via the peer paths, watch the
// gossiped fleet view converge, then kill a node and verify the
// survivors keep answering without a user-visible error.
func TestClusterEndToEnd(t *testing.T) {
	nodes := startTestCluster(t, 3)
	a, b, c := nodes[0], nodes[1], nodes[2]

	g := gen.ForestUnion(150, 3, 9)
	var upload bytes.Buffer
	if err := graph.Encode(&upload, g); err != nil {
		t.Fatal(err)
	}
	var info GraphInfo
	if code := doJSON(t, "POST", a.base+"/graphs", upload.Bytes(), "", &info); code != http.StatusCreated {
		t.Fatalf("POST /graphs via %s -> %d", a.id, code)
	}

	spec, _ := json.Marshal(JobSpec{GraphID: info.ID, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 11}})

	// The same spec through two different front doors: one computes (on
	// whichever node owns the graph), the other must be answered through
	// the peer machinery — owner cache fill, forward, or local cache.
	first := clusterSubmit(t, b.base, spec)
	if first.State != JobDone {
		t.Fatalf("job via %s finished as %s (%s)", b.id, first.State, first.Error)
	}
	second := clusterSubmit(t, c.base, spec)
	if second.State != JobDone {
		t.Fatalf("job via %s finished as %s (%s)", c.id, second.State, second.Error)
	}
	w1, _ := json.Marshal(first.Result)
	w2, _ := json.Marshal(second.Result)
	if !bytes.Equal(w1, w2) {
		t.Fatalf("results diverge between nodes:\n%s\n%s", w1, w2)
	}

	// At least one request crossed the fleet: the graph was only
	// uploaded via A, and B and C both answered for it.
	var peerWork int64
	for _, n := range nodes {
		ps := n.svc.peerStats()
		peerWork += ps.CacheFillHits + ps.Forwards + ps.GraphFills + ps.GraphPushes
	}
	if peerWork == 0 {
		t.Fatal("no peer traffic recorded despite cross-node serving")
	}

	// Every node's /stats carries its fleet identity, and /readyz says
	// it accepts work.
	for _, n := range nodes {
		var st Stats
		if code := doJSON(t, "GET", n.base+"/stats", nil, "", &st); code != http.StatusOK {
			t.Fatalf("GET /stats on %s -> %d", n.id, code)
		}
		if st.Node == nil || st.Node.ID != n.id || st.Node.Peers != 2 {
			t.Fatalf("%s /stats node block: %+v", n.id, st.Node)
		}
		if st.Peer == nil {
			t.Fatalf("%s /stats has no peer block", n.id)
		}
		resp, err := http.Get(n.base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /readyz on %s -> %d", n.id, resp.StatusCode)
		}
	}

	// The gossiped fleet view converges: every node eventually reports
	// all three members alive.
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range nodes {
		for {
			var fleet cluster.FleetStats
			if code := doJSON(t, "GET", n.base+"/cluster/stats", nil, "", &fleet); code != http.StatusOK {
				t.Fatalf("GET /cluster/stats on %s -> %d", n.id, code)
			}
			alive := 0
			for _, v := range fleet.Nodes {
				if v.Alive {
					alive++
				}
			}
			if len(fleet.Nodes) == 3 && alive == 3 && fleet.Self == n.id {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s fleet view never converged: %+v", n.id, fleet)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Peer metrics are exported.
	resp, err := http.Get(a.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "nwserve_peer_cache_fill_hits_total") {
		t.Fatal("/metrics does not export nwserve_peer_* series")
	}

	// Kill one node. The survivors route around it: a brand-new graph
	// and spec must still come back done from both, with no error
	// states, even while health checks are still discovering the death.
	c.kill()
	g2 := gen.ForestUnion(120, 2, 10)
	upload.Reset()
	if err := graph.Encode(&upload, g2); err != nil {
		t.Fatal(err)
	}
	var info2 GraphInfo
	if code := doJSON(t, "POST", a.base+"/graphs", upload.Bytes(), "", &info2); code != http.StatusCreated {
		t.Fatalf("POST /graphs after kill -> %d", code)
	}
	spec2, _ := json.Marshal(JobSpec{GraphID: info2.ID, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 12}})
	for _, n := range []*clusterNode{a, b} {
		if snap := clusterSubmit(t, n.base, spec2); snap.State != JobDone {
			t.Fatalf("post-kill job via %s finished as %s (%s)", n.id, snap.State, snap.Error)
		}
	}
	// The original spec still answers too (cached or recomputed — but
	// never a 5xx or a failed state).
	if snap := clusterSubmit(t, a.base, spec); snap.State != JobDone {
		t.Fatalf("post-kill resubmit finished as %s (%s)", snap.State, snap.Error)
	}
}

// TestUploadReplicatesToOwner uploads graphs to a node that does not own
// them. The owner must receive the bytes by replication, not by a later
// fill; with the owner dead, the upload still succeeds on the local copy
// and the graph serves jobs there.
func TestUploadReplicatesToOwner(t *testing.T) {
	nodes := startTestCluster(t, 2)
	a, b := nodes[0], nodes[1]
	// ownedByB returns the next forest union, from seed on, that a routes
	// to b.
	ownedByB := func(seed uint64) ([]byte, string, uint64) {
		for end := seed + 256; seed < end; seed++ {
			data := encode(t, gen.ForestUnion(60, 2, seed))
			id := hashID(graph.FormatPlain, data)
			if p, self := a.clu.Route(id); !self && p.ID == b.id {
				return data, id, seed
			}
		}
		t.Fatalf("no graph from seed %d on routes to %s", seed-256, b.id)
		return nil, "", 0
	}
	data, id, seed := ownedByB(1)
	later, laterID, _ := ownedByB(seed + 1)

	var info GraphInfo
	if code := doJSON(t, "POST", a.base+"/graphs", data, "", &info); code != http.StatusCreated || info.ID != id {
		t.Fatalf("POST /graphs via %s -> %d %s, want 201 %s", a.id, code, info.ID, id)
	}
	if _, ok := b.svc.Store().Info(id); !ok {
		t.Fatal("the owner does not hold the uploaded graph")
	}
	if got := a.svc.peerStats().GraphPushes; got != 1 {
		t.Fatalf("uploader's graph pushes = %d, want 1", got)
	}
	if got := b.svc.peerStats().GraphFills; got != 0 {
		t.Fatalf("owner's graph fills = %d, want 0: it pulled the graph instead of receiving it", got)
	}

	b.kill()
	if code := doJSON(t, "POST", a.base+"/graphs", later, "", &info); code != http.StatusCreated || info.ID != laterID {
		t.Fatalf("POST /graphs with the owner dead -> %d %s, want 201 %s", code, info.ID, laterID)
	}
	if got := a.svc.peerStats().GraphPushes; got != 1 {
		t.Fatalf("graph pushes = %d after an upload the dead owner could not take, want still 1", got)
	}
	spec, _ := json.Marshal(JobSpec{GraphID: laterID, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: 1}})
	if snap := clusterSubmit(t, a.base, spec); snap.State != JobDone {
		t.Fatalf("job on the uploader finished as %s (%s)", snap.State, snap.Error)
	}
}

// TestClusterDrainRouting: a draining node keeps answering /healthz
// (liveness) but flips /readyz, and its peers stop routing new work to
// it once the health probes see the 503.
func TestClusterDrainRouting(t *testing.T) {
	nodes := startTestCluster(t, 2)
	a, b := nodes[0], nodes[1]

	b.svc.StartDrain()
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(b.base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		want := http.StatusOK
		if path == "/readyz" {
			want = http.StatusServiceUnavailable
		}
		if resp.StatusCode != want {
			t.Fatalf("GET %s while draining -> %d, want %d", path, resp.StatusCode, want)
		}
	}

	// A's health loop marks B down within a few probe intervals.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(a.clu.AlivePeers()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining peer was never marked down")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// With B draining, everything A accepts runs locally — including
	// work B would own.
	g := gen.ForestUnion(100, 2, 5)
	var upload bytes.Buffer
	if err := graph.Encode(&upload, g); err != nil {
		t.Fatal(err)
	}
	var info GraphInfo
	if code := doJSON(t, "POST", a.base+"/graphs", upload.Bytes(), "", &info); code != http.StatusCreated {
		t.Fatalf("POST /graphs -> %d", code)
	}
	spec, _ := json.Marshal(JobSpec{GraphID: info.ID, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 3, Eps: 0.5, Seed: 4}})
	if snap := clusterSubmit(t, a.base, spec); snap.State != JobDone {
		t.Fatalf("job beside a draining peer finished as %s (%s)", snap.State, snap.Error)
	}
}

// TestCloseCancelsResultPush checks that Close ends the asynchronous
// push of a fallback result to its routing target. A stub peer answers
// the cache probe with 404 and the forward with 503, so the job computes
// locally and then pushes; the stub holds PUT /peer/cache open until
// its request context is done.
func TestCloseCancelsResultPush(t *testing.T) {
	pushed := make(chan struct{}, 1)
	canceled := make(chan struct{}, 1)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/peer/jobs":
			w.WriteHeader(http.StatusServiceUnavailable)
		case r.Method == http.MethodPut && r.URL.Path == "/peer/cache":
			// The server sees the client go only once the body is read.
			io.Copy(io.Discard, r.Body)
			pushed <- struct{}{}
			<-r.Context().Done()
			canceled <- struct{}{}
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer stub.Close()

	svc := newTestService(t, Config{Workers: 1})
	clu, err := cluster.New(cluster.Config{
		NodeID: "self",
		Peers:  []cluster.Peer{{ID: "self", Addr: "http://127.0.0.1:1"}, {ID: "stub", Addr: stub.URL}},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.AttachCluster(clu)
	id := ""
	for seed := uint64(1); seed <= 64 && id == ""; seed++ {
		gid := addGraph(t, svc, gen.ForestUnion(60, 2, seed))
		if _, self := clu.Route(gid); !self {
			id = gid
		}
	}
	if id == "" {
		t.Fatal("no graph routes to the stub peer")
	}
	j, err := svc.Submit(JobSpec{GraphID: id, Algorithm: "decompose",
		Options: nwforest.Options{Alpha: 2, Eps: 0.5, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitDone(t, svc, j); snap.State != JobDone {
		t.Fatalf("job finished as %s (%s)", snap.State, snap.Error)
	}
	select {
	case <-pushed:
	case <-time.After(10 * time.Second):
		t.Fatal("the fallback result was never pushed to the stub")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-canceled:
	case <-time.After(time.Second):
		t.Fatal("the push was still open 1s after Close returned")
	}
}
