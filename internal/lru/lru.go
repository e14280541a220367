// Package lru is the one bounded container behind everything nwserve
// retains: the result cache, the warm graphs, the upload budget, the job
// history, finished jobs and traces.
package lru

import "iter"

// Cache is a map bounded by an entry count and, optionally, by the sum
// of the sizes its owner gives each entry. Get and Put make an entry the
// newest; Peek leaves the order alone, so an owner that only Puts and
// Peeks keeps insertion (FIFO) order. Beyond either bound the oldest
// entries are evicted, but the newest entry is always kept, even when it
// alone exceeds the byte budget.
//
// A Cache is not safe for concurrent use: owners guard it with their own
// mutex, so that a lookup and the counters they keep beside it stay
// atomic together.
type Cache[K comparable, V any] struct {
	maxEntries int
	maxBytes   int64 // <= 0: no byte bound
	bytes      int64
	items      map[K]*node[K, V]
	root       node[K, V]  // root.next is the newest entry, root.prev the oldest
	spare      *node[K, V] // the last node dropped, reused by the next insertion
	onEvict    func(K, V)

	added, evicted int64
}

type node[K comparable, V any] struct {
	prev, next *node[K, V]
	key        K
	val        V
	size       int64
}

// New returns a Cache of at most maxEntries entries (< 1 is treated as
// 1) and, when maxBytes > 0, at most maxBytes of total size unless the
// newest entry alone exceeds it. onEvict, if non-nil, runs for every
// entry a bound evicts, after the entry has left the cache; Remove does
// not run it.
func New[K comparable, V any](maxEntries int, maxBytes int64, onEvict func(K, V)) *Cache[K, V] {
	if maxEntries < 1 {
		maxEntries = 1
	}
	c := &Cache[K, V]{maxEntries: maxEntries, maxBytes: maxBytes, items: make(map[K]*node[K, V]), onEvict: onEvict}
	c.root.next, c.root.prev = &c.root, &c.root
	return c
}

// Get returns the value for k and makes it the newest entry.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	n, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(n)
	c.pushFront(n)
	return n.val, true
}

// Peek returns the value for k without changing the order.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	n, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	return n.val, true
}

// Put stores v of the given size under k as the newest entry, replacing
// the value and size an existing k had, then evicts the oldest entries
// while either bound is exceeded.
func (c *Cache[K, V]) Put(k K, v V, size int64) {
	c.added++
	n, ok := c.items[k]
	if ok {
		c.unlink(n)
		c.bytes -= n.size
	} else {
		if n = c.spare; n != nil {
			c.spare = nil
		} else {
			n = new(node[K, V])
		}
		n.key = k
		c.items[k] = n
	}
	n.val, n.size = v, size
	c.bytes += size
	c.pushFront(n)
	for len(c.items) > 1 && (len(c.items) > c.maxEntries || c.maxBytes > 0 && c.bytes > c.maxBytes) {
		old := c.root.prev
		k, v := old.key, old.val
		c.drop(old)
		c.evicted++
		if c.onEvict != nil {
			c.onEvict(k, v)
		}
	}
}

// Remove drops k, if present, without running the eviction hook or
// counting an eviction.
func (c *Cache[K, V]) Remove(k K) {
	if n, ok := c.items[k]; ok {
		c.drop(n)
	}
}

// drop takes n out of the cache and keeps its node for the next
// insertion, cleared so that it pins nothing.
func (c *Cache[K, V]) drop(n *node[K, V]) {
	c.unlink(n)
	delete(c.items, n.key)
	c.bytes -= n.size
	*n = node[K, V]{}
	c.spare = n
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.next.prev = n
	c.root.next = n
}

// OldestFirst yields the entries from the oldest to the newest without
// changing the order. The cache must not change during the iteration.
func (c *Cache[K, V]) OldestFirst() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for n := c.root.prev; n != &c.root; n = n.prev {
			if !yield(n.key, n.val) {
				return
			}
		}
	}
}

// NewestFirst yields the entries from the newest to the oldest without
// changing the order. The cache must not change during the iteration.
func (c *Cache[K, V]) NewestFirst() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for n := c.root.next; n != &c.root; n = n.next {
			if !yield(n.key, n.val) {
				return
			}
		}
	}
}

// Len is the number of entries held.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Bytes is the total size of the entries held.
func (c *Cache[K, V]) Bytes() int64 { return c.bytes }

// MaxEntries is the entry bound.
func (c *Cache[K, V]) MaxEntries() int { return c.maxEntries }

// MaxBytes is the byte bound (<= 0: none).
func (c *Cache[K, V]) MaxBytes() int64 { return c.maxBytes }

// Added counts Puts, replacements of a held key included.
func (c *Cache[K, V]) Added() int64 { return c.added }

// Evicted counts the entries the bounds evicted.
func (c *Cache[K, V]) Evicted() int64 { return c.evicted }
