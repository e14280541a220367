package core

import (
	"sync"
	"sync/atomic"

	"nwforest/internal/forest"
)

// a2pool is the bounded persistent worker pool of the parallel cluster
// phase: one goroutine per worker for the pool's lifetime, woken per
// batch by a send on its own channel and joined with a WaitGroup; result
// and panic slots are preallocated, so a steady-state batch costs
// channel operations and atomics — no goroutine spawns, no heap
// allocations.
//
// Cluster sizes are wildly skewed, so jobs are claimed dynamically by an
// atomic fetch-add index rather than split into contiguous shards.
// Job ASSIGNMENT is therefore scheduling-dependent — which is safe
// precisely because job bodies only touch disjoint state (each worker
// has its own arena; each cluster owns its footprint).
type a2pool struct {
	arenas []*algo2Arena
	work   []chan struct{}
	panics []any
	wg     sync.WaitGroup

	next  atomic.Int64
	njobs int
	body  func(w, idx int)
}

// newA2Pool starts workers goroutines, each with a private algo2Arena
// over st. Callers must close the pool when done.
func newA2Pool(workers int, st *forest.State) *a2pool {
	p := &a2pool{
		arenas: make([]*algo2Arena, workers),
		work:   make([]chan struct{}, workers),
		panics: make([]any, workers),
	}
	for w := 0; w < workers; w++ {
		p.arenas[w] = newAlgo2Arena(st)
		p.work[w] = make(chan struct{}, 1)
		go func(w int) {
			for range p.work[w] {
				func() {
					defer p.wg.Done()
					defer func() {
						if r := recover(); r != nil {
							p.panics[w] = r
						}
					}()
					for {
						i := int(p.next.Add(1)) - 1
						if i >= p.njobs {
							return
						}
						p.body(w, i)
					}
				}()
			}
		}(w)
	}
	return p
}

// runBatch runs body(worker, idx) for every idx in [0, njobs), blocking
// until all jobs finish. A panic in any job is re-raised on the calling
// goroutine — lowest worker index first — so a caller's recover sees it
// regardless of execution mode. The pool stays
// usable after a re-raised panic (the slots are cleared first), though
// the state the jobs were mutating generally is not.
func (p *a2pool) runBatch(njobs int, body func(w, idx int)) {
	if njobs == 0 {
		return
	}
	p.njobs = njobs
	p.body = body
	p.next.Store(0)
	p.wg.Add(len(p.work))
	for _, c := range p.work {
		c <- struct{}{}
	}
	p.wg.Wait()
	p.body = nil
	var first any
	for w := range p.panics {
		if r := p.panics[w]; r != nil {
			if first == nil {
				first = r
			}
			p.panics[w] = nil
		}
	}
	if first != nil {
		panic(first)
	}
}

// close shuts the worker goroutines down. The pool must be idle.
func (p *a2pool) close() {
	for _, c := range p.work {
		close(c)
	}
}
