package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Peer is one fleet member: a ring ID and the base URL its peers reach
// it at (scheme://host:port, no trailing slash).
type Peer struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Config describes one node's view of the fleet. Every node is started
// with the same membership list (including itself), so all rings agree
// without a coordinator.
type Config struct {
	// NodeID is this node's ring identity. Required.
	NodeID string
	// Peers is the full fleet membership, self included. The self entry
	// provides the advertised address peers use to reach this node.
	Peers []Peer
	// VirtualNodes per member; <= 0 selects DefaultVirtualNodes.
	VirtualNodes int
	// HealthInterval is the peer ping cadence (default 2s).
	HealthInterval time.Duration
	// GossipInterval is the stats exchange cadence (default 2s).
	GossipInterval time.Duration
	// FailureThreshold is how many consecutive ping failures mark a peer
	// dead (default 2). A dead peer is routed around until a ping
	// succeeds again.
	FailureThreshold int
	// Logger receives health transitions and gossip errors. Nil disables
	// logging.
	Logger *slog.Logger
	// SelfStats supplies this node's stats summary for gossip. Nil
	// gossips an empty summary.
	SelfStats func() StatsSummary
	// Ready reports whether this node should accept peer traffic; the
	// ping handler answers 503 when it returns false (draining), which
	// makes peers route around without treating the node as crashed.
	// Nil means always ready.
	Ready func() bool
}

// StatsSummary is the compact per-node stats subset carried by gossip.
// It is a digest for fleet dashboards, not the full /stats document —
// each node still serves its own complete /stats.
type StatsSummary struct {
	JobsDone       int64 `json:"jobsDone"`
	JobsFailed     int64 `json:"jobsFailed"`
	JobsRunning    int64 `json:"jobsRunning"`
	QueueDepth     int   `json:"queueDepth"`
	Workers        int   `json:"workers"`
	Graphs         int   `json:"graphs"`
	CacheEntries   int   `json:"cacheEntries"`
	CacheHits      int64 `json:"cacheHits"`
	CacheMisses    int64 `json:"cacheMisses"`
	PeerCacheFills int64 `json:"peerCacheFills"`
	PeerForwards   int64 `json:"peerForwards"`
	PeerFallbacks  int64 `json:"peerFallbacks"`
}

// NodeInfo is a node's identity block, shown in /stats and carried in
// gossip so every member can describe the fleet.
type NodeInfo struct {
	ID          string `json:"id"`
	Addr        string `json:"addr"`
	Peers       int    `json:"peers"`
	RingVersion string `json:"ringVersion"`
}

// NodeSnapshot is one node's gossiped state. Seq is a per-origin
// monotonic counter: a snapshot replaces a stored one only if its Seq
// is higher, so stale snapshots arriving via a slow third party never
// roll a node's view backwards.
type NodeSnapshot struct {
	Node            NodeInfo     `json:"node"`
	Seq             uint64       `json:"seq"`
	TakenUnixMillis int64        `json:"takenUnixMillis"`
	Stats           StatsSummary `json:"stats"`
}

// gossipMsg is the push-pull exchange body: the sender's full snapshot
// map. The receiver merges it and replies with its own merged map, so
// one round transfers knowledge in both directions.
type gossipMsg struct {
	From      string                  `json:"from"`
	Snapshots map[string]NodeSnapshot `json:"snapshots"`
}

// Stats counts the cluster plumbing's own activity, for /stats and the
// nwserve_peer_* metrics.
type Stats struct {
	PeersKnown     int   `json:"peersKnown"`
	PeersAlive     int   `json:"peersAlive"`
	GossipSent     int64 `json:"gossipSent"`
	GossipReceived int64 `json:"gossipReceived"`
	GossipMerged   int64 `json:"gossipMerged"`
	Pings          int64 `json:"pings"`
	PingFailures   int64 `json:"pingFailures"`
}

// NodeView is one row of the fleet-wide GET /cluster/stats answer.
type NodeView struct {
	ID          string       `json:"id"`
	Addr        string       `json:"addr"`
	Self        bool         `json:"self,omitempty"`
	Alive       bool         `json:"alive"`
	RingVersion string       `json:"ringVersion,omitempty"`
	Seq         uint64       `json:"seq,omitempty"`
	AgeMillis   int64        `json:"ageMillis,omitempty"`
	Stats       StatsSummary `json:"stats"`
}

// FleetStats is the GET /cluster/stats document.
type FleetStats struct {
	Self        string     `json:"self"`
	RingVersion string     `json:"ringVersion"`
	Nodes       []NodeView `json:"nodes"`
}

type peerState struct {
	peer  Peer
	fails int
	alive bool
}

// Cluster is one node's runtime view of the fleet: the ring, peer
// liveness, and the gossiped snapshot map. All methods are safe for
// concurrent use.
type Cluster struct {
	cfg    Config
	ring   *Ring
	self   Peer
	logger *slog.Logger

	mu        sync.Mutex
	peers     map[string]*peerState // excludes self
	snapshots map[string]NodeSnapshot
	selfSeq   uint64

	gossipSent     atomic.Int64
	gossipReceived atomic.Int64
	gossipMerged   atomic.Int64
	pings          atomic.Int64
	pingFailures   atomic.Int64

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// New validates cfg and builds the node's cluster state. The returned
// Cluster routes immediately; Start launches the health and gossip
// loops.
func New(cfg Config) (*Cluster, error) {
	if cfg.NodeID == "" {
		return nil, errors.New("cluster: NodeID required")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 2 * time.Second
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 2
	}
	c := &Cluster{
		cfg:       cfg,
		logger:    cfg.Logger,
		peers:     make(map[string]*peerState),
		snapshots: make(map[string]NodeSnapshot),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	ids := make([]string, 0, len(cfg.Peers)+1)
	ids = append(ids, cfg.NodeID)
	for _, p := range cfg.Peers {
		if p.ID == "" || p.Addr == "" {
			return nil, fmt.Errorf("cluster: peer needs id and addr, got %+v", p)
		}
		if _, err := url.Parse(p.Addr); err != nil {
			return nil, fmt.Errorf("cluster: peer %s: bad addr %q: %w", p.ID, p.Addr, err)
		}
		p.Addr = strings.TrimRight(p.Addr, "/")
		if p.ID == cfg.NodeID {
			c.self = p
			continue
		}
		if _, dup := c.peers[p.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", p.ID)
		}
		ids = append(ids, p.ID)
		// Peers start alive: an optimistic first forward either works or
		// fails fast, and the transport error itself feeds the health
		// state via noteFailure.
		c.peers[p.ID] = &peerState{peer: p, alive: true}
	}
	if c.self.Addr == "" {
		return nil, fmt.Errorf("cluster: membership must include self (%s) with its advertised addr", cfg.NodeID)
	}
	c.ring = NewRing(ids, cfg.VirtualNodes)
	c.refreshSelf()
	return c, nil
}

// Start launches the background health and gossip loops. Stop halts
// them; Start must not be called twice.
func (c *Cluster) Start() {
	go func() {
		defer close(c.done)
		health := time.NewTicker(c.cfg.HealthInterval)
		gossip := time.NewTicker(c.cfg.GossipInterval)
		defer health.Stop()
		defer gossip.Stop()
		// Prime liveness and fleet view right away instead of waiting a
		// full tick.
		c.checkPeers()
		c.gossipRound()
		for {
			select {
			case <-c.stop:
				return
			case <-health.C:
				c.checkPeers()
			case <-gossip.C:
				c.gossipRound()
			}
		}
	}()
}

// Stop terminates the background loops and waits for them to exit.
func (c *Cluster) Stop() {
	c.once.Do(func() { close(c.stop) })
	<-c.done
}

// Self returns this node's membership entry.
func (c *Cluster) Self() Peer { return c.self }

// NodeInfo returns this node's identity block for /stats.
func (c *Cluster) NodeInfo() NodeInfo {
	return NodeInfo{
		ID:          c.cfg.NodeID,
		Addr:        c.self.Addr,
		Peers:       len(c.peers),
		RingVersion: c.ring.Version(),
	}
}

// Stats returns the plumbing counters plus current liveness tallies.
func (c *Cluster) Stats() Stats {
	s := Stats{
		GossipSent:     c.gossipSent.Load(),
		GossipReceived: c.gossipReceived.Load(),
		GossipMerged:   c.gossipMerged.Load(),
		Pings:          c.pings.Load(),
		PingFailures:   c.pingFailures.Load(),
	}
	c.mu.Lock()
	s.PeersKnown = len(c.peers)
	for _, ps := range c.peers {
		if ps.alive {
			s.PeersAlive++
		}
	}
	c.mu.Unlock()
	return s
}

// Route returns where a key's work should go: the ring owner if it is
// this node or an alive peer, otherwise the first alive ring successor.
// self=true means "handle it locally" — either this node owns the key
// or every other candidate is dead (graceful degradation: local compute
// beats a user-visible error).
func (c *Cluster) Route(key string) (Peer, bool) {
	for _, id := range c.ring.Successors(key, len(c.ring.nodes)) {
		if id == c.cfg.NodeID {
			return c.self, true
		}
		c.mu.Lock()
		ps := c.peers[id]
		alive := ps != nil && ps.alive
		var p Peer
		if ps != nil {
			p = ps.peer
		}
		c.mu.Unlock()
		if alive {
			return p, false
		}
	}
	return c.self, true
}

// AlivePeers returns the peers currently believed alive, sorted by ID —
// the candidate set for scatter reads (e.g. graph fill when the owner
// is down).
func (c *Cluster) AlivePeers() []Peer {
	c.mu.Lock()
	out := make([]Peer, 0, len(c.peers))
	for _, ps := range c.peers {
		if ps.alive {
			out = append(out, ps.peer)
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NoteFailure records a transport-level failure talking to a peer
// (forward, cache probe, graph fetch). RPC errors are health signals
// too: they trip the dead mark without waiting for the next ping.
func (c *Cluster) NoteFailure(peerID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ps := c.peers[peerID]
	if ps == nil {
		return
	}
	ps.fails++
	if ps.alive && ps.fails >= c.cfg.FailureThreshold {
		ps.alive = false
		c.logf("cluster: peer down", "peer", peerID, "fails", ps.fails)
	}
}

// noteSuccess resets a peer's failure streak and revives it.
func (c *Cluster) noteSuccess(peerID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ps := c.peers[peerID]
	if ps == nil {
		return
	}
	ps.fails = 0
	if !ps.alive {
		ps.alive = true
		c.logf("cluster: peer up", "peer", peerID)
	}
}

func (c *Cluster) logf(msg string, args ...any) {
	if c.logger != nil {
		c.logger.Info(msg, args...)
	}
}

// checkPeers pings every peer once. Runs on the health ticker.
func (c *Cluster) checkPeers() {
	c.mu.Lock()
	targets := make([]Peer, 0, len(c.peers))
	for _, ps := range c.peers {
		targets = append(targets, ps.peer)
	}
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range targets {
		wg.Add(1)
		go func(p Peer) {
			defer wg.Done()
			c.pings.Add(1)
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HealthInterval)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.Addr+"/peer/ping", nil)
			if err != nil {
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				c.pingFailures.Add(1)
				c.NoteFailure(p.ID)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				// Draining (503) and crashed look the same to routing:
				// stop sending work there.
				c.pingFailures.Add(1)
				c.NoteFailure(p.ID)
				return
			}
			c.noteSuccess(p.ID)
		}(p)
	}
	wg.Wait()
}

// refreshSelf rebuilds this node's own snapshot with the next sequence
// number and stores it in the map.
func (c *Cluster) refreshSelf() NodeSnapshot {
	var stats StatsSummary
	if c.cfg.SelfStats != nil {
		stats = c.cfg.SelfStats()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.selfSeq++
	snap := NodeSnapshot{
		Node:            c.NodeInfo(),
		Seq:             c.selfSeq,
		TakenUnixMillis: time.Now().UnixMilli(),
		Stats:           stats,
	}
	c.snapshots[c.cfg.NodeID] = snap
	return snap
}

// snapshotCopy returns the current snapshot map.
func (c *Cluster) snapshotCopy() map[string]NodeSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]NodeSnapshot, len(c.snapshots))
	for k, v := range c.snapshots {
		out[k] = v
	}
	return out
}

// merge folds a received snapshot map into ours. Higher per-origin Seq
// wins. Only configured peers are merged: our own entry is never
// overwritten (we are the authority on ourselves), and a node outside
// the fleet would otherwise stay in the map, re-sent every round,
// forever.
func (c *Cluster) merge(in map[string]NodeSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, snap := range in {
		if c.peers[id] == nil || snap.Node.ID != id {
			continue
		}
		if cur, ok := c.snapshots[id]; !ok || snap.Seq > cur.Seq {
			c.snapshots[id] = snap
			c.gossipMerged.Add(1)
		}
	}
}

// gossipRound refreshes the self snapshot and push-pulls with the next
// alive peer in rotation. One exchange per round keeps traffic at
// O(fleet) per interval while still converging in O(log N) rounds.
func (c *Cluster) gossipRound() {
	c.refreshSelf()
	alive := c.AlivePeers()
	if len(alive) == 0 {
		return
	}
	// Rotate deterministically by round so every peer is exchanged with
	// in turn; randomness buys nothing at fleet sizes nwserve targets.
	target := alive[int(c.gossipSent.Load())%len(alive)]
	c.gossipSent.Add(1)

	body, err := json.Marshal(gossipMsg{From: c.cfg.NodeID, Snapshots: c.snapshotCopy()})
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.GossipInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target.Addr+"/peer/gossip", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.NoteFailure(target.ID)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return
	}
	var reply gossipMsg
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&reply); err != nil {
		return
	}
	// Deliberately no noteSuccess here: gossip still answers while a
	// peer drains, so only the ping handler (which reports 503 when
	// draining) may revive a dead-marked peer.
	c.merge(reply.Snapshots)
}

// HandleGossip is the receiving side of the push-pull exchange: merge
// the sender's map, reply with ours.
func (c *Cluster) HandleGossip(w http.ResponseWriter, r *http.Request) {
	var in gossipMsg
	if err := json.NewDecoder(io.LimitReader(r.Body, 4<<20)).Decode(&in); err != nil {
		http.Error(w, "bad gossip body", http.StatusBadRequest)
		return
	}
	c.gossipReceived.Add(1)
	c.merge(in.Snapshots)
	c.refreshSelf()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(gossipMsg{From: c.cfg.NodeID, Snapshots: c.snapshotCopy()})
}

// HandlePing is the health endpoint peers probe. 503 while draining
// moves traffic away before shutdown completes.
func (c *Cluster) HandlePing(w http.ResponseWriter, r *http.Request) {
	if c.cfg.Ready != nil && !c.cfg.Ready() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "{\"status\":\"draining\"}\n")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, "{\"status\":\"ok\"}\n")
}

// FleetView assembles the GET /cluster/stats document from the local
// snapshot map and liveness state. The self row is refreshed on demand
// so the serving node's numbers are always current.
func (c *Cluster) FleetView() FleetStats {
	c.refreshSelf()
	snaps := c.snapshotCopy()
	now := time.Now().UnixMilli()

	fs := FleetStats{Self: c.cfg.NodeID, RingVersion: c.ring.Version()}
	for _, id := range c.ring.Nodes() {
		v := NodeView{ID: id}
		if id == c.cfg.NodeID {
			v.Self, v.Alive, v.Addr = true, true, c.self.Addr
		} else {
			c.mu.Lock()
			if ps := c.peers[id]; ps != nil {
				v.Alive, v.Addr = ps.alive, ps.peer.Addr
			}
			c.mu.Unlock()
		}
		if snap, ok := snaps[id]; ok {
			v.RingVersion = snap.Node.RingVersion
			v.Seq = snap.Seq
			v.Stats = snap.Stats
			if snap.TakenUnixMillis > 0 {
				v.AgeMillis = now - snap.TakenUnixMillis
			}
		}
		fs.Nodes = append(fs.Nodes, v)
	}
	return fs
}

// --- peer RPC client -------------------------------------------------
//
// The methods below move raw bytes; interpreting them (decoding job
// snapshots, verifying graph IDs) stays in internal/service so this
// package never imports the serving stack. Every transport-level error
// also feeds the failure detector.

// maxPeerBodyBytes bounds a cached result or graph a peer sends back:
// the size POST /peer/graphs and PUT /peer/cache accept.
const maxPeerBodyBytes = 256 << 20

// readBounded reads a peer's reply body to the end. A body past limit
// bytes is an error rather than a silent truncation.
func readBounded(r io.Reader, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("cluster: peer reply exceeds %d bytes", limit)
	}
	return data, nil
}

// FetchCachedResult asks a peer's result cache for key. found=false
// with nil error is a clean miss; errors are transport-level.
func (c *Cluster) FetchCachedResult(ctx context.Context, p Peer, key string) (body []byte, found bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		p.Addr+"/peer/cache?key="+url.QueryEscape(key), nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.NoteFailure(p.ID)
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := readBounded(resp.Body, maxPeerBodyBytes)
		if err != nil {
			return nil, false, err
		}
		return data, true, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, false, nil
	default:
		io.Copy(io.Discard, resp.Body)
		return nil, false, fmt.Errorf("peer %s cache probe: status %d", p.ID, resp.StatusCode)
	}
}

// PushCachedResult offers a computed result to a peer's cache
// (best-effort anti-entropy after a fallback local compute).
func (c *Cluster) PushCachedResult(ctx context.Context, p Peer, key string, result []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		p.Addr+"/peer/cache?key="+url.QueryEscape(key), bytes.NewReader(result))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.NoteFailure(p.ID)
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("peer %s cache push: status %d", p.ID, resp.StatusCode)
	}
	return nil
}

// ForwardCompute sends a job spec to a peer's POST /peer/jobs, which
// runs it to a terminal state and returns the job snapshot. The HTTP
// status is passed through for the caller to interpret; transport
// errors feed the failure detector.
func (c *Cluster) ForwardCompute(ctx context.Context, p Peer, spec []byte) (status int, body []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.Addr+"/peer/jobs", bytes.NewReader(spec))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.NoteFailure(p.ID)
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := readBounded(resp.Body, 64<<20)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}

// ForwardGraph replicates graph bytes to a peer via POST /peer/graphs.
// The peer ingests them content-addressed, so the resulting ID is
// identical to a local ingest by construction.
func (c *Cluster) ForwardGraph(ctx context.Context, p Peer, format string, data []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		p.Addr+"/peer/graphs?format="+url.QueryEscape(format), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.NoteFailure(p.ID)
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("peer %s graph forward: status %d", p.ID, resp.StatusCode)
	}
	return nil
}

// FetchGraph pulls a graph's source bytes and format from a peer.
// found=false with nil error means the peer doesn't hold it.
func (c *Cluster) FetchGraph(ctx context.Context, p Peer, id string) (data []byte, format string, found bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		p.Addr+"/peer/graphs/"+url.PathEscape(id)+"/data", nil)
	if err != nil {
		return nil, "", false, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.NoteFailure(p.ID)
		return nil, "", false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := readBounded(resp.Body, maxPeerBodyBytes)
		if err != nil {
			return nil, "", false, err
		}
		return data, resp.Header.Get("X-Nwserve-Format"), true, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, "", false, nil
	default:
		io.Copy(io.Discard, resp.Body)
		return nil, "", false, fmt.Errorf("peer %s graph fetch: status %d", p.ID, resp.StatusCode)
	}
}
