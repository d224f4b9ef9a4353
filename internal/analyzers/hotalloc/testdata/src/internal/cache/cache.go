// Package cache is a stand-in for mobicache/internal/cache: the client
// cache's per-item methods are in the known hot set, so an allocating
// Put is flagged even without a //hot annotation.
package cache

type slot struct {
	id   int32
	next int32
}

type Cache struct {
	slots []*slot
	free  []int32
}

// Put is in the known hot set: no annotation, still checked.
func (c *Cache) Put(id int32) {
	c.slots = append(c.slots, &slot{id: id}) // want `append may grow its backing array` `composite literal may heap-allocate`
}

// Invalidate is in the known hot set; the free-stack append carries its
// capacity rationale.
func (c *Cache) Invalidate(s int32) {
	//lint:allow hotalloc the free stack is built at full capacity
	c.free = append(c.free, s)
}

// Entries is not in the known set and not annotated: free to allocate.
func (c *Cache) Entries() []int32 {
	out := make([]int32, 0, len(c.slots))
	for _, s := range c.slots {
		out = append(out, s.id)
	}
	return out
}
