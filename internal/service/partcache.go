package service

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/partition"
)

// partCache is the warm partition cache: partitions keyed by everything that
// determines them — (graph fingerprint, partitioner, ranks, and the seed the
// partitioner reads) — held LRU by entry count. Partitioning dominates
// small-job latency (the multilevel partitioner costs more than a matching
// run on the same graph), and with the content-addressed store keeping
// graphs resident across jobs, repeat jobs over the same graph at different
// algorithm parameters would otherwise re-partition identically every time.
//
// Cached *partition.Partition values are shared across concurrent jobs
// without copying: every consumer (dgraph.Distribute and the verifiers)
// treats a partition as read-only, building per-rank local structures from
// it rather than mutating it.
type partCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type partEntry struct {
	key  string
	part *partition.Partition
}

// newPartCache builds a cache holding up to cap partitions; cap <= 0
// disables it.
func newPartCache(cap int) *partCache {
	return &partCache{cap: cap, ll: list.New(), m: make(map[string]*list.Element)}
}

// partitionKey identifies a partition by its full derivation; seed is the
// one the partitioner reads (Request.partitionSeed).
func partitionKey(fp, partitioner string, ranks int, seed uint64) string {
	return fmt.Sprintf("%s|%s|p%d|s%d", fp, partitioner, ranks, seed)
}

func (c *partCache) get(key string) (*partition.Partition, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*partEntry).part, true
}

// put stores a partition; returns the number of evictions (0 or 1).
func (c *partCache) put(key string, p *partition.Partition) int {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return 0 // same key ⇒ same derivation ⇒ same partition
	}
	c.m[key] = c.ll.PushFront(&partEntry{key: key, part: p})
	if c.ll.Len() <= c.cap {
		return 0
	}
	last := c.ll.Back()
	c.ll.Remove(last)
	delete(c.m, last.Value.(*partEntry).key)
	return 1
}

func (c *partCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
