// Package dist is the LOCAL/CONGEST cost accounting of the module: the
// rounds, messages and bits every algorithm reports, and the observer
// seams through which callers watch them accrue.
//
// # Model
//
// In the LOCAL model, a network of processors — one per graph vertex —
// computes in synchronous rounds. In every round each vertex (1) receives
// the messages its neighbors sent in the previous round, (2) performs
// arbitrary local computation, and (3) sends one message along each of
// its incident edges. The complexity of an algorithm is the number of
// rounds until every vertex has produced its output; message size is
// unbounded. The CONGEST model is identical except messages are limited
// to O(log n) bits, so the total number of messages and bits moved is
// also a meaningful cost. Cost records rounds per algorithm phase and,
// for a phase that simulates message passing, the messages and bits it
// sent.
//
// Communication is per incident edge "port": a vertex of degree d has
// ports 0..d-1, one per entry of its adjacency list, and parallel edges
// are distinct ports, so a vertex joined to a neighbor by three parallel
// edges sends it three messages when it sends on every port.
//
// # Accounting
//
// Two kinds of code charge a Cost. A protocol simulated round by round —
// the H-partition peel in internal/hpartition, stepped directly on the
// graph's CSR arrays — charges the rounds it stepped and, through
// ChargeMessages, the messages and bits counted when they were sent; its
// tests hold it to the same protocol run as per-vertex programs over
// per-port mailboxes. A simulation whose round budget runs out first
// returns an error wrapping ErrMaxRounds, and one that stalls (a round
// removes nobody, so no later round can) charges its remaining budget at
// once. Local post-processing steps — O(1)-round relabelings, O(log* n)
// tree colorings — are not simulated; they charge the rounds the paper
// proves they would take.
//
// Charge adds to a phase; ChargeMax instead keeps the per-phase maximum,
// which models sub-protocols that run in parallel in the LOCAL model
// (the slowest one determines the wall-clock rounds). Rounds() is always
// the sum of the per-phase totals, so a Breakdown always sums to it.
//
// All Cost methods are nil-receiver safe: passing a nil *Cost disables
// accounting, which keeps call sites free of conditionals.
//
// # Observers
//
// Two observers watch a Cost, both handed down through the caller's
// context (WithProgress, WithSpans) and installed on the Cost an
// algorithm run allocates. A Progress hook sees every round charge (the
// service's SSE progress stream); a SpanObserver also sees traffic
// charges and every simulated round (the service's trace recorder). A
// simulated protocol fetches the SpanObserver from its context once and
// calls EngineRound after each round it steps, so the idle rounds a
// stalled protocol charges are never observed. Without observers a
// charge or a round costs one nil check, and attaching one adds no
// allocation to the peel.
package dist
