// Package cache is a sharded, bounded, TTL-aware memoization cache for
// selection decisions. Keys are opaque byte strings (the selector derives
// them from the collective name plus the quantized feature vector), values
// are arbitrary immutable payloads. Each shard is an independent LRU guarded
// by its own mutex, so concurrent readers on different keys rarely contend.
// A shard keeps its entries in a slab of slots linked into its LRU order by
// index, so an entry costs one slot and one index entry and nothing else: a
// Put that evicts reuses the victim's slot in place and allocates nothing.
// Hit/miss/eviction counts are kept twice: as lock-free atomics (for cheap
// programmatic assertions via Stats) and as obs counters (so they show up on
// /metrics).
package cache

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/obs"
)

// Config tunes a Cache.
type Config struct {
	// Shards is the number of independent shards; it is rounded up to the
	// next power of two. Default 16.
	Shards int
	// MaxEntries bounds the total number of live entries across all
	// shards; the bound is enforced per shard (MaxEntries/Shards each, at
	// least 1). Default 65536.
	MaxEntries int
	// TTL is how long an entry stays valid after Put. Zero means entries
	// never expire.
	TTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	n := 1
	for n < c.Shards {
		n <<= 1
	}
	c.Shards = n
	if c.MaxEntries <= 0 {
		c.MaxEntries = 65536
	}
	return c
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64 // LRU and TTL evictions combined
	Entries   int
}

// Cache is a sharded LRU/TTL cache. Safe for concurrent use.
type Cache struct {
	shards []shard
	mask   uint32
	ttl    time.Duration
	now    func() time.Time
	// epoch is what slot expiry times count from: a Duration since epoch
	// is monotonic where the clock is, like time.Time.After.
	epoch time.Time

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	mHits      *obs.Counter
	mMisses    *obs.Counter
	mEvictions *obs.Counter
	mEntries   *obs.Gauge
	mLookup    obs.BoundHistogram
}

// none is the null slot index: the end of the LRU list or the free list.
const none = -1

// shard is one LRU. Its live entries are slots of the slab, linked from
// head (most recently used) to tail; slots a TTL expiry emptied are linked
// through next from free. The slab grows to cap slots and no further.
type shard struct {
	mu         sync.Mutex
	index      map[string]int32 // key → slot
	slots      []slot
	head, tail int32
	free       int32
	cap        int
}

type slot struct {
	key        string
	val        any
	prev, next int32
	expires    time.Duration // since Cache.epoch; meaningful when the cache has a TTL
}

// New builds a cache and registers its instruments in reg:
// pmlmpi_cache_hits_total, pmlmpi_cache_misses_total,
// pmlmpi_cache_evictions_total{reason}, pmlmpi_cache_entries,
// pmlmpi_cache_lookup_duration_seconds.
func New(cfg Config, reg *obs.Registry) *Cache {
	cfg = cfg.withDefaults()
	perShard := cfg.MaxEntries / cfg.Shards
	if perShard < 1 {
		perShard = 1
	}
	perShard = min(perShard, math.MaxInt32) // slots are int32-indexed
	c := &Cache{
		shards: make([]shard, cfg.Shards),
		mask:   uint32(cfg.Shards - 1),
		ttl:    cfg.TTL,
		now:    time.Now,
		epoch:  time.Now(),
		mHits: reg.Counter("pmlmpi_cache_hits_total",
			"Decision-cache lookups served from cache."),
		mMisses: reg.Counter("pmlmpi_cache_misses_total",
			"Decision-cache lookups that fell through to the forest."),
		mEvictions: reg.Counter("pmlmpi_cache_evictions_total",
			"Decision-cache entries evicted.", "reason"),
		mEntries: reg.Gauge("pmlmpi_cache_entries",
			"Live decision-cache entries."),
		mLookup: reg.Histogram("pmlmpi_cache_lookup_duration_seconds",
			"Wall time of one decision-cache Get, hit or miss.", obs.LatencyBuckets).Bind(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.index = make(map[string]int32)
		sh.head, sh.tail, sh.free = none, none, none
		sh.cap = perShard
	}
	return c
}

// fnv32a hashes the key to pick a shard.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (c *Cache) shardFor(key string) *shard {
	return &c.shards[fnv32a(key)&c.mask]
}

// clock reads the injected clock as a Duration since the epoch.
func (c *Cache) clock() time.Duration { return c.now().Sub(c.epoch) }

// unlink takes slot i out of the LRU list.
func (sh *shard) unlink(i int32) {
	s := &sh.slots[i]
	if s.prev == none {
		sh.head = s.next
	} else {
		sh.slots[s.prev].next = s.next
	}
	if s.next == none {
		sh.tail = s.prev
	} else {
		sh.slots[s.next].prev = s.prev
	}
}

// pushFront makes slot i the most recently used.
func (sh *shard) pushFront(i int32) {
	s := &sh.slots[i]
	s.prev, s.next = none, sh.head
	if sh.head == none {
		sh.tail = i
	} else {
		sh.slots[sh.head].prev = i
	}
	sh.head = i
}

// alloc returns an unlinked slot for a new entry: the least recently used
// one when the shard is full (evicted reports that), else a freed one, else
// a new one from the slab, which grows by doubling up to the shard's cap.
func (sh *shard) alloc() (i int32, evicted bool) {
	switch {
	case len(sh.index) >= sh.cap:
		i = sh.tail
		sh.unlink(i)
		delete(sh.index, sh.slots[i].key)
		return i, true
	case sh.free != none:
		i = sh.free
		sh.free = sh.slots[i].next
		return i, false
	}
	if len(sh.slots) == cap(sh.slots) {
		grown := make([]slot, len(sh.slots), min(max(2*cap(sh.slots), 8), sh.cap))
		copy(grown, sh.slots)
		sh.slots = grown
	}
	sh.slots = append(sh.slots, slot{})
	return int32(len(sh.slots) - 1), false
}

// release drops live slot i, key and value, onto the free list.
func (sh *shard) release(i int32) {
	sh.unlink(i)
	delete(sh.index, sh.slots[i].key)
	sh.slots[i] = slot{next: sh.free}
	sh.free = i
}

// Get returns the value stored under key, refreshing its LRU position. An
// expired entry is removed and counted as a TTL eviction plus a miss. Every
// lookup, hit or miss, feeds the lookup-duration histogram.
func (c *Cache) Get(key string) (any, bool) {
	start := time.Now()
	v, ok := c.get(key)
	c.mLookup.Observe(time.Since(start).Seconds())
	return v, ok
}

func (c *Cache) get(key string) (any, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	i, ok := sh.index[key]
	if ok {
		if c.ttl > 0 && c.clock() > sh.slots[i].expires {
			sh.release(i)
			sh.mu.Unlock()
			c.evictions.Add(1)
			c.mEvictions.Inc("ttl")
			c.mEntries.Add(-1)
			c.misses.Add(1)
			c.mMisses.Inc()
			return nil, false
		}
		if i != sh.head {
			sh.unlink(i)
			sh.pushFront(i)
		}
		val := sh.slots[i].val
		sh.mu.Unlock()
		c.hits.Add(1)
		c.mHits.Inc()
		return val, true
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	c.mMisses.Inc()
	return nil, false
}

// Put stores val under key, evicting the shard's least recently used entry
// if the shard is at capacity. Re-putting an existing key refreshes its
// value, TTL, and LRU position without eviction.
func (c *Cache) Put(key string, val any) {
	var expires time.Duration
	if c.ttl > 0 {
		expires = c.clock() + c.ttl
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	i, ok := sh.index[key]
	evicted := false
	if ok {
		sh.unlink(i)
	} else {
		i, evicted = sh.alloc()
		sh.index[key] = i
		sh.slots[i].key = key // the index's own string: one copy per entry
	}
	s := &sh.slots[i]
	s.val, s.expires = val, expires
	sh.pushFront(i)
	sh.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
		c.mEvictions.Inc("lru")
	} else if !ok {
		c.mEntries.Add(1)
	}
}

// Flush drops every live entry, counting each as an eviction with reason
// "flush", and returns how many were dropped. The selector calls it when a
// new model generation is promoted: generation-prefixed keys already make
// old entries unreachable, so this exists to reclaim their memory eagerly
// rather than waiting on LRU/TTL pressure. The shards keep their slabs and
// indexes for the entries that follow.
func (c *Cache) Flush() int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += len(sh.index)
		clear(sh.index)
		clear(sh.slots)
		sh.slots = sh.slots[:0]
		sh.head, sh.tail, sh.free = none, none, none
		sh.mu.Unlock()
	}
	if total > 0 {
		c.evictions.Add(uint64(total))
		c.mEvictions.Add(float64(total), "flush")
		c.mEntries.Add(float64(-total))
	}
	return total
}

// Len returns the number of live entries across all shards. Expired but
// not-yet-collected entries are included.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.index)
		sh.mu.Unlock()
	}
	return n
}

// Stats snapshots the atomic counters and current entry count.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}
