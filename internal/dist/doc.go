// Package dist is the LOCAL-model simulation substrate of the module: a
// synchronous message-passing engine plus the round/bandwidth accounting
// that every algorithm reports.
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
// also a meaningful cost. This package tracks both: Cost records rounds
// per algorithm phase, and the Engine additionally counts every message
// (and its size in bits) the programs send, which callers fold back into
// the same Cost via ChargeMessages.
//
// Communication is per incident edge "port": a vertex of degree d has
// ports 0..d-1, one per entry of its adjacency list, and parallel edges
// are distinct ports. A message sent on port p of u travels along that
// specific edge and arrives on the port of v that corresponds to the
// same edge ID. This makes the engine multigraph-correct: a vertex
// connected to a neighbor by three parallel edges can receive three
// distinct messages from it in one round.
//
// # Accounting
//
// Three kinds of code charge a Cost. Message-passing protocols run on
// the Engine charge the rounds Run reports and the traffic it counted.
// A protocol simple enough to step directly on the graph's CSR arrays —
// the H-partition peel in internal/hpartition — simulates its rounds
// itself and charges what the Engine would report for the same program:
// the rounds, and the messages and bits counted at send time; its tests
// check it against that program on the Engine. Such a simulation calls
// SpanObserver.EngineRound once per round it steps, so tracing samples
// it like an Engine run; a peel that stalls charges its remaining budget
// at once, so those idle rounds are charged but never observed. Local
// post-processing steps — O(1)-round relabelings, O(log* n) tree
// colorings — are not simulated; they charge the rounds the paper proves
// they would take.
// Charge adds to a phase; ChargeMax instead keeps the per-phase maximum,
// which models sub-protocols that run in parallel in the LOCAL model
// (the slowest one determines the wall-clock rounds). Rounds() is always
// the sum of the per-phase totals, so a Breakdown always sums to it.
//
// All Cost methods are nil-receiver safe: passing a nil *Cost disables
// accounting, which keeps call sites free of conditionals.
//
// # Determinism
//
// The engine is deterministic by construction: programs are per-vertex
// state machines whose Step may depend only on their own state and the
// messages received, so the round-r state of the system is a pure
// function of the round-(r-1) state no matter how Step calls are
// interleaved. The parallel executor shards vertices across
// GOMAXPROCS-many workers with double-buffered mailboxes (each mailbox
// slot has exactly one writer — the vertex across that port), and is
// bit-identical to the sequential fallback: same seed in, same messages,
// same rounds, same outputs out, regardless of Mode or core count.
package dist
