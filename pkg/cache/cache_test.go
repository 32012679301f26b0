package cache

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/obs"
)

func newTestCache(cfg Config) (*Cache, *obs.Registry) {
	reg := obs.NewRegistry()
	return New(cfg, reg), reg
}

func TestGetPutHitMiss(t *testing.T) {
	c, _ := newTestCache(Config{})

	if _, ok := c.Get("k1"); ok {
		t.Fatal("empty cache should miss")
	}
	c.Put("k1", 42)
	v, ok := c.Get("k1")
	if !ok || v.(int) != 42 {
		t.Fatalf("Get(k1) = %v, %v; want 42, true", v, ok)
	}
	c.Put("k1", 43) // refresh
	if v, _ := c.Get("k1"); v.(int) != 43 {
		t.Fatalf("refreshed value = %v, want 43", v)
	}

	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Evictions != 0 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / 0 evictions / 1 entry", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// One shard of capacity 3 makes the LRU order fully observable.
	c, _ := newTestCache(Config{Shards: 1, MaxEntries: 3})
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Get("a") // a is now most recent; b is the LRU victim
	c.Put("d", 4)

	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should have survived eviction", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Errorf("stats = %+v, want 1 eviction and 3 entries", st)
	}
}

func TestTTLExpiry(t *testing.T) {
	c, _ := newTestCache(Config{TTL: time.Minute})
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	c.Put("k", "v")
	if _, ok := c.Get("k"); !ok {
		t.Fatal("entry should be live before TTL")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.Get("k"); ok {
		t.Fatal("entry should have expired")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 1 TTL eviction and 0 entries", st)
	}
	// Re-put after expiry works and refreshes the TTL.
	c.Put("k", "v2")
	if v, ok := c.Get("k"); !ok || v.(string) != "v2" {
		t.Errorf("re-put after expiry = %v, %v", v, ok)
	}
}

func TestCapacityBoundAcrossShards(t *testing.T) {
	c, _ := newTestCache(Config{Shards: 4, MaxEntries: 64})
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	if n := c.Len(); n > 64 {
		t.Errorf("cache holds %d entries, bound is 64", n)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Error("overfilling the cache should have evicted")
	}
}

func TestShardCountRoundsToPowerOfTwo(t *testing.T) {
	c, _ := newTestCache(Config{Shards: 5})
	if len(c.shards) != 8 {
		t.Errorf("5 shards rounded to %d, want 8", len(c.shards))
	}
}

func TestMetricsExposition(t *testing.T) {
	c, reg := newTestCache(Config{Shards: 1, MaxEntries: 2})
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")    // hit
	c.Get("nope") // miss
	c.Put("c", 3) // LRU-evicts b

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"pmlmpi_cache_hits_total 1",
		"pmlmpi_cache_misses_total 1",
		`pmlmpi_cache_evictions_total{reason="lru"} 1`,
		"pmlmpi_cache_entries 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, _ := newTestCache(Config{Shards: 8, MaxEntries: 1024})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%50)
				if i%3 == 0 {
					c.Put(key, g)
				} else {
					c.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 50 {
		t.Errorf("cache holds %d entries, want at most 50 distinct keys", n)
	}
}

func TestLookupDurationHistogramCountsEveryGet(t *testing.T) {
	c, reg := newTestCache(Config{})
	c.Get("missing")
	c.Put("k", 1)
	c.Get("k")
	c.Get("k")

	var b strings.Builder
	reg.WritePrometheus(&b)
	if want := "pmlmpi_cache_lookup_duration_seconds_count 3"; !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing %q in:\n%s", want, b.String())
	}
}

func TestFlushEmptiesEveryShardAndCounts(t *testing.T) {
	c, reg := newTestCache(Config{MaxEntries: 1024, Shards: 8})
	const n = 100
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if got := c.Len(); got != n {
		t.Fatalf("Len = %d before flush, want %d", got, n)
	}

	if flushed := c.Flush(); flushed != n {
		t.Fatalf("Flush returned %d, want %d", flushed, n)
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("Len = %d after flush, want 0", got)
	}
	for i := 0; i < n; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); ok {
			t.Fatalf("key k%d survived the flush", i)
		}
	}
	if st := c.Stats(); st.Evictions != n {
		t.Fatalf("evictions = %d after flush, want %d", st.Evictions, n)
	}

	// Flushing an empty cache is a no-op, and the cache stays usable.
	if flushed := c.Flush(); flushed != 0 {
		t.Fatalf("second Flush returned %d, want 0", flushed)
	}
	c.Put("again", 1)
	if v, ok := c.Get("again"); !ok || v.(int) != 1 {
		t.Fatal("cache unusable after flush")
	}

	var expo strings.Builder
	reg.WritePrometheus(&expo)
	if out := expo.String(); !strings.Contains(out, `pmlmpi_cache_evictions_total{reason="flush"} 100`) {
		t.Fatalf("flush evictions not exported with reason label:\n%s", out)
	}
}
