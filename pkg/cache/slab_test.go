package cache

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// refCache is the cache's specification as a plain model: per-shard
// container/list LRUs of boxed entries, front = most recently used, with
// the same sharding, capacity, TTL and counting rules. The property test
// drives it and the slab cache with one operation sequence.
type refCache struct {
	shards []refShard
	mask   uint32
	cap    int
	ttl    time.Duration
	now    func() time.Time

	hits, misses, evictions uint64
}

type refShard struct {
	lru *list.List
	m   map[string]*list.Element
}

type refEntry struct {
	key     string
	val     int
	expires time.Time // zero = never
}

func newRefCache(cfg Config, now func() time.Time) *refCache {
	cfg = cfg.withDefaults()
	r := &refCache{
		shards: make([]refShard, cfg.Shards),
		mask:   uint32(cfg.Shards - 1),
		cap:    max(cfg.MaxEntries/cfg.Shards, 1),
		ttl:    cfg.TTL,
		now:    now,
	}
	for i := range r.shards {
		r.shards[i] = refShard{lru: list.New(), m: make(map[string]*list.Element)}
	}
	return r
}

func (r *refCache) shard(key string) *refShard { return &r.shards[fnv32a(key)&r.mask] }

func (r *refCache) get(key string) (int, bool) {
	sh := r.shard(key)
	el, ok := sh.m[key]
	if !ok {
		r.misses++
		return 0, false
	}
	e := el.Value.(*refEntry)
	if !e.expires.IsZero() && r.now().After(e.expires) {
		sh.lru.Remove(el)
		delete(sh.m, key)
		r.evictions++
		r.misses++
		return 0, false
	}
	sh.lru.MoveToFront(el)
	r.hits++
	return e.val, true
}

func (r *refCache) put(key string, val int) {
	var expires time.Time
	if r.ttl > 0 {
		expires = r.now().Add(r.ttl)
	}
	sh := r.shard(key)
	if el, ok := sh.m[key]; ok {
		e := el.Value.(*refEntry)
		e.val, e.expires = val, expires
		sh.lru.MoveToFront(el)
		return
	}
	if sh.lru.Len() >= r.cap {
		back := sh.lru.Back()
		sh.lru.Remove(back)
		delete(sh.m, back.Value.(*refEntry).key)
		r.evictions++
	}
	sh.m[key] = sh.lru.PushFront(&refEntry{key: key, val: val, expires: expires})
}

func (r *refCache) flush() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		n += sh.lru.Len()
		sh.lru.Init()
		sh.m = make(map[string]*list.Element)
	}
	r.evictions += uint64(n)
	return n
}

func (r *refCache) stats() Stats {
	n := 0
	for i := range r.shards {
		n += r.shards[i].lru.Len()
	}
	return Stats{Hits: r.hits, Misses: r.misses, Evictions: r.evictions, Entries: n}
}

// order lists shard i's keys from most to least recently used.
func (r *refCache) order(i int) []string {
	var keys []string
	for el := r.shards[i].lru.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*refEntry).key)
	}
	return keys
}

// order lists shard i's keys from most to least recently used, walking the
// slot links both ways so a broken prev link shows too.
func (c *Cache) order(t *testing.T, i int) []string {
	t.Helper()
	sh := &c.shards[i]
	var keys []string
	prev := int32(none)
	for j := sh.head; j != none; j = sh.slots[j].next {
		if sh.slots[j].prev != prev {
			t.Fatalf("shard %d slot %d: prev link %d, want %d", i, j, sh.slots[j].prev, prev)
		}
		if got := sh.index[sh.slots[j].key]; got != j {
			t.Fatalf("shard %d: index maps %q to slot %d, it lives in %d", i, sh.slots[j].key, got, j)
		}
		keys = append(keys, sh.slots[j].key)
		prev = j
	}
	if sh.tail != prev {
		t.Fatalf("shard %d: tail %d, list ends at %d", i, sh.tail, prev)
	}
	if len(keys) != len(sh.index) {
		t.Fatalf("shard %d: %d linked slots, %d indexed keys", i, len(keys), len(sh.index))
	}
	if cap(sh.slots) > sh.cap {
		t.Fatalf("shard %d: slab with room for %d slots exceeds the cap %d", i, cap(sh.slots), sh.cap)
	}
	return keys
}

// TestSlabMatchesReferenceLRU drives the slab cache and the container/list
// model with the same seeded Put/Get/Flush sequence under an injected clock
// that advances past the TTL now and then, and compares every lookup's
// outcome and value, every shard's LRU order (so every eviction's victim)
// and the Stats after every step.
func TestSlabMatchesReferenceLRU(t *testing.T) {
	for _, cfg := range []Config{
		{Shards: 1, MaxEntries: 8},
		{Shards: 1, MaxEntries: 1, TTL: 30 * time.Millisecond},
		{Shards: 4, MaxEntries: 16, TTL: 50 * time.Millisecond},
		{Shards: 2, MaxEntries: 13, TTL: 10 * time.Millisecond},
		{Shards: 8, MaxEntries: 4},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("shards%d_max%d_ttl%s", cfg.Shards, cfg.MaxEntries, cfg.TTL), func(t *testing.T) {
			now := time.Unix(1_700_000_000, 0)
			clock := func() time.Time { return now }
			c, _ := newTestCache(cfg)
			c.now = clock
			ref := newRefCache(cfg, clock)
			rng := rand.New(rand.NewSource(int64(cfg.Shards*1000 + cfg.MaxEntries)))
			keys := 3 * cfg.MaxEntries
			for step := 0; step < 20000; step++ {
				key := fmt.Sprintf("k%d", rng.Intn(keys))
				switch op := rng.Intn(100); {
				case op < 45:
					val := rng.Int()
					c.Put(key, val)
					ref.put(key, val)
				case op < 90:
					got, ok := c.Get(key)
					want, wantOK := ref.get(key)
					if ok != wantOK || (ok && got.(int) != want) {
						t.Fatalf("step %d: Get(%s) = %v, %v; reference %v, %v", step, key, got, ok, want, wantOK)
					}
				case op < 99:
					now = now.Add(time.Duration(rng.Intn(int(4*time.Millisecond) + 1)))
				default:
					if got, want := c.Flush(), ref.flush(); got != want {
						t.Fatalf("step %d: Flush dropped %d, reference %d", step, got, want)
					}
				}
				if got, want := c.Stats(), ref.stats(); got != want {
					t.Fatalf("step %d: stats %+v, reference %+v", step, got, want)
				}
				for i := range c.shards {
					if got, want := c.order(t, i), ref.order(i); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("step %d shard %d: LRU order %v, reference %v", step, i, got, want)
					}
				}
			}
		})
	}
}

// TestPutEvictingAllocatesNothing pins the slab's point: once a shard is
// full, a Put of a new key reuses the victim's slot in place.
func TestPutEvictingAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	c, _ := newTestCache(Config{Shards: 4, MaxEntries: 64})
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	vals := make([]*int, len(keys))
	for i := range vals {
		vals[i] = new(int)
	}
	for i := range keys { // fill every shard and grow every slab
		c.Put(keys[i], vals[i])
	}
	next := 0
	allocs := testing.AllocsPerRun(2000, func() {
		c.Put(keys[next%len(keys)], vals[next%len(keys)])
		next += 7
	})
	if allocs != 0 {
		t.Errorf("an evicting Put allocates %.2f times, want 0", allocs)
	}
}

// TestRePutKeepsOneKeyString pins that refreshing a key keeps the string the
// index already holds, so an entry retains one copy of its key, not two.
func TestRePutKeepsOneKeyString(t *testing.T) {
	c, _ := newTestCache(Config{Shards: 1, MaxEntries: 4})
	c.Put(string([]byte("key")), 1)
	c.Put(string([]byte("key")), 2) // equal, separately allocated
	sh := &c.shards[0]
	for key, i := range sh.index {
		if unsafe.StringData(key) != unsafe.StringData(sh.slots[i].key) {
			t.Error("the slot holds a second copy of its key")
		}
	}
	if v, _ := c.Get("key"); v.(int) != 2 {
		t.Errorf("re-put value %v, want 2", v)
	}
}
