package lru

import (
	"slices"
	"testing"
)

// op is one call on a Cache[string, int64] whose values are the sizes
// they were put with.
type op struct {
	kind string // "put", "get", "peek" or "remove"
	key  string
	size int64
}

func put(k string, size int64) op { return op{"put", k, size} }
func get(k string) op             { return op{kind: "get", key: k} }
func peek(k string) op            { return op{kind: "peek", key: k} }
func remove(k string) op          { return op{kind: "remove", key: k} }

func TestCache(t *testing.T) {
	for _, tc := range []struct {
		name       string
		maxEntries int
		maxBytes   int64
		ops        []op
		order      []string // oldest first
		bytes      int64
		added      int64
		evicted    []string // hook calls, in order
	}{
		{
			name: "entry cap evicts the oldest", maxEntries: 2,
			ops:   []op{put("a", 1), put("b", 1), put("c", 1)},
			order: []string{"b", "c"}, bytes: 2, added: 3, evicted: []string{"a"},
		},
		{
			name: "entry cap below one holds one", maxEntries: 0,
			ops:   []op{put("a", 1), put("b", 1)},
			order: []string{"b"}, bytes: 1, added: 2, evicted: []string{"a"},
		},
		{
			name: "byte cap evicts the oldest", maxEntries: 10, maxBytes: 10,
			ops:   []op{put("a", 4), put("b", 4), put("c", 4)},
			order: []string{"b", "c"}, bytes: 8, added: 3, evicted: []string{"a"},
		},
		{
			name: "byte cap evicts as many as it takes", maxEntries: 10, maxBytes: 10,
			ops:   []op{put("a", 3), put("b", 3), put("c", 3), put("d", 9)},
			order: []string{"d"}, bytes: 9, added: 4, evicted: []string{"a", "b", "c"},
		},
		{
			name: "the newest survives a byte cap it alone exceeds", maxEntries: 10, maxBytes: 10,
			ops:   []op{put("a", 4), put("big", 20)},
			order: []string{"big"}, bytes: 20, added: 2, evicted: []string{"a"},
		},
		{
			name: "no byte cap", maxEntries: 10,
			ops:   []op{put("a", 1<<40), put("b", 1<<40)},
			order: []string{"a", "b"}, bytes: 2 << 40, added: 2,
		},
		{
			name: "Get makes an entry the newest", maxEntries: 2,
			ops:   []op{put("a", 1), put("b", 1), get("a"), put("c", 1)},
			order: []string{"a", "c"}, bytes: 2, added: 3, evicted: []string{"b"},
		},
		{
			name: "Peek leaves the order alone", maxEntries: 2,
			ops:   []op{put("a", 1), put("b", 1), peek("a"), put("c", 1)},
			order: []string{"b", "c"}, bytes: 2, added: 3, evicted: []string{"a"},
		},
		{
			name: "a miss changes nothing", maxEntries: 2,
			ops:   []op{put("a", 1), get("x"), peek("y"), remove("z")},
			order: []string{"a"}, bytes: 1, added: 1,
		},
		{
			name: "re-Put replaces the size and makes the key the newest", maxEntries: 10, maxBytes: 10,
			ops:   []op{put("a", 4), put("b", 4), put("a", 6), put("c", 1)},
			order: []string{"a", "c"}, bytes: 7, added: 4, evicted: []string{"b"},
		},
		{
			name: "re-Put within the budget evicts nothing", maxEntries: 10, maxBytes: 10,
			ops:   []op{put("a", 4), put("a", 4), put("a", 4), put("b", 6)},
			order: []string{"a", "b"}, bytes: 10, added: 4,
		},
		{
			name: "Remove runs no hook and counts no eviction", maxEntries: 2, maxBytes: 10,
			ops:   []op{put("a", 4), put("b", 4), remove("a"), put("c", 4), put("d", 4)},
			order: []string{"c", "d"}, bytes: 8, added: 4, evicted: []string{"b"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hooked []string
			c := New(tc.maxEntries, tc.maxBytes, func(k string, v int64) {
				hooked = append(hooked, k)
			})
			for _, o := range tc.ops {
				switch o.kind {
				case "put":
					c.Put(o.key, o.size, o.size)
				case "get":
					c.Get(o.key)
				case "peek":
					c.Peek(o.key)
				case "remove":
					c.Remove(o.key)
				}
			}
			var oldest, newest []string
			var sum int64
			for k, v := range c.OldestFirst() {
				oldest = append(oldest, k)
				sum += v
				if got, ok := c.Peek(k); !ok || got != v {
					t.Errorf("Peek(%q) = %d, %v; iteration yields %d", k, got, ok, v)
				}
			}
			for k := range c.NewestFirst() {
				newest = append(newest, k)
			}
			slices.Reverse(newest)
			if !slices.Equal(oldest, tc.order) || !slices.Equal(newest, tc.order) {
				t.Errorf("oldest first %v, newest first reversed %v, want %v", oldest, newest, tc.order)
			}
			if c.Len() != len(tc.order) || c.Bytes() != tc.bytes || sum != tc.bytes {
				t.Errorf("Len %d Bytes %d (values sum to %d), want %d and %d", c.Len(), c.Bytes(), sum, len(tc.order), tc.bytes)
			}
			if c.Added() != tc.added || c.Evicted() != int64(len(tc.evicted)) || !slices.Equal(hooked, tc.evicted) {
				t.Errorf("Added %d Evicted %d hooked %v, want %d, %d and %v",
					c.Added(), c.Evicted(), hooked, tc.added, len(tc.evicted), tc.evicted)
			}
		})
	}
}

func TestIterationStopsEarly(t *testing.T) {
	c := New[int, int](10, 0, nil)
	for i := range 5 {
		c.Put(i, i, 1)
	}
	for _, seq := range []struct {
		name string
		want int
		all  func(func(int, int) bool)
	}{{"OldestFirst", 0, c.OldestFirst()}, {"NewestFirst", 4, c.NewestFirst()}} {
		var seen []int
		for k := range seq.all {
			seen = append(seen, k)
			break
		}
		if !slices.Equal(seen, []int{seq.want}) {
			t.Errorf("%s stopped after %v, want [%d]", seq.name, seen, seq.want)
		}
	}
}

// TestPutReusesEvictedNode pins the node reuse: once a cache is full,
// each Put of a new key evicts one entry and takes over its node.
func TestPutReusesEvictedNode(t *testing.T) {
	c := New[int, int](4, 0, nil)
	next := 0
	allocs := testing.AllocsPerRun(1000, func() {
		c.Put(next, next, 1)
		next++
	})
	if allocs != 0 {
		t.Fatalf("Put into a full cache allocates %.0f times, want 0", allocs)
	}
}
