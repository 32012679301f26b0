package selector

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestPartitionKeyGolden pins the exact key for a fixed request. Fleet
// partitioning depends on every gateway — across processes, restarts,
// and releases — computing the same key for the same request; if this
// value ever changes, a rolling gateway upgrade would re-shard the
// entire fleet's cache key space.
func TestPartitionKeyGolden(t *testing.T) {
	feats := map[string]float64{
		"msg_size_bytes": 4096,
		"comm_size":      48,
		"node_count":     4,
	}
	got := PartitionKey("allreduce", feats, DefaultCacheQuantum)
	const want = uint64(0xa86ec013d12f0e7f)
	if got != want {
		t.Fatalf("PartitionKey = %#x, want %#x (changing this re-shards the fleet)", got, want)
	}
}

func TestPartitionKeyMirrorsCacheQuantization(t *testing.T) {
	a := map[string]float64{"msg_size_bytes": 4096, "comm_size": 48}
	b := map[string]float64{"msg_size_bytes": 4096.0000004, "comm_size": 48.0000004}
	c := map[string]float64{"msg_size_bytes": 8192, "comm_size": 48}
	if PartitionKey("allreduce", a, DefaultCacheQuantum) != PartitionKey("allreduce", b, DefaultCacheQuantum) {
		t.Fatal("near-identical features (within the quantum) produced different keys")
	}
	if PartitionKey("allreduce", a, DefaultCacheQuantum) == PartitionKey("allreduce", c, DefaultCacheQuantum) {
		t.Fatal("distinct features collided")
	}
	if PartitionKey("allreduce", a, DefaultCacheQuantum) == PartitionKey("bcast", a, DefaultCacheQuantum) {
		t.Fatal("collective name does not separate key spaces")
	}
	// A zero quantum falls back to the default rather than dividing by it.
	if PartitionKey("allreduce", a, 0) != PartitionKey("allreduce", a, DefaultCacheQuantum) {
		t.Fatal("quantum 0 did not fall back to DefaultCacheQuantum")
	}
}

// TestPartitionKeyFeatureSetSensitivity: the key folds feature *names*
// too, so the same values under different names (or an extra feature)
// partition separately, and non-finite values key deterministically.
func TestPartitionKeyFeatureSetSensitivity(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 2}
	b := map[string]float64{"x": 1, "z": 2}
	c := map[string]float64{"x": 1, "y": 2, "z": 0}
	if PartitionKey("allreduce", a, 1) == PartitionKey("allreduce", b, 1) {
		t.Fatal("renamed feature did not change the key")
	}
	if PartitionKey("allreduce", a, 1) == PartitionKey("allreduce", c, 1) {
		t.Fatal("extra feature did not change the key")
	}
	nan := map[string]float64{"x": nanValue()}
	if PartitionKey("allreduce", nan, 1) != PartitionKey("allreduce", nan, 1) {
		t.Fatal("NaN feature did not key deterministically")
	}
}

// partitionKeyBySorting is PartitionKey as it was before it reused the wire
// codec's cached key order: collect the names, sort them, fold.
func partitionKeyBySorting(collective string, features map[string]float64, quantum float64) uint64 {
	names := make([]string, 0, len(features))
	for name := range features {
		names = append(names, name)
	}
	sort.Strings(names)
	key, _ := partitionKeyInOrder(collective, features, names, quantum)
	return key
}

// TestPartitionKeyIgnoresMapOrderAndCacheState: the key is a function of
// the request alone. Whatever key list the order cache holds — the same
// names, a permutation-equal rebuild, another set of the same size, a
// subset, nothing — and however the map was built, PartitionKey equals the
// sort-every-time reference, so no key moves to another replica.
func TestPartitionKeyIgnoresMapOrderAndCacheState(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pool := []string{"log2_msg_size", "ppn", "num_nodes", "mem_bw_gbs", "thread_count", "l3_cache_mib",
		"core_count", "sockets", "numa_nodes", "pcie_lanes", "pcie_gen", "link_speed_gbps", "link_width",
		"max_clock_ghz", "µ", "a\x00b", ""}
	draw := func() map[string]float64 {
		m := make(map[string]float64)
		for _, i := range rng.Perm(len(pool))[:rng.Intn(len(pool)+1)] {
			m[pool[i]] = math.Round(rng.NormFloat64()*1e4) / 16
		}
		return m
	}
	prev := draw()
	for i := 0; i < 5000; i++ {
		m := prev
		switch rng.Intn(4) {
		case 0: // a new feature set: the cached order is now someone else's
			m = draw()
		case 1: // the same names, inserted in another order, other values
			m = make(map[string]float64, len(prev))
			names := make([]string, 0, len(prev))
			for k := range prev {
				names = append(names, k)
			}
			rng.Shuffle(len(names), func(a, b int) { names[a], names[b] = names[b], names[a] })
			for _, k := range names {
				m[k] = float64(rng.Intn(1 << 20))
			}
		case 2: // same size, one name swapped: the cached list matches all but one key
			m = make(map[string]float64, len(prev))
			for k, v := range prev {
				m[k] = v
			}
			for k := range m {
				delete(m, k)
				m[k+"'"] = 1
				break
			}
		case 3:
			featureOrder.Store(nil)
		}
		quantum := []float64{0, DefaultCacheQuantum, 1, 0.5}[rng.Intn(4)]
		effective := quantum
		if effective <= 0 {
			effective = DefaultCacheQuantum
		}
		want := partitionKeyBySorting("allgather", m, effective)
		if got := PartitionKey("allgather", m, quantum); got != want {
			t.Fatalf("step %d: PartitionKey(%v) = %#x, the sorting reference gives %#x", i, m, got, want)
		}
		prev = m
	}
}

func nanValue() float64 {
	var zero float64
	return zero / zero
}

// TestPartitionKeySpreadsAcrossBuckets is a cheap avalanche check: keys
// from a structured request population (power-of-two sizes, small comm
// counts) must not collapse into a few residues mod a replica count.
func TestPartitionKeySpreadsAcrossBuckets(t *testing.T) {
	const buckets = 8
	counts := make([]int, buckets)
	n := 0
	for p := 0; p < 16; p++ {
		for comm := 2; comm <= 128; comm *= 2 {
			feats := map[string]float64{
				"msg_size_bytes": float64(int64(1) << p),
				"comm_size":      float64(comm),
			}
			counts[PartitionKey("allreduce", feats, DefaultCacheQuantum)%buckets]++
			n++
		}
	}
	for b, c := range counts {
		if c == 0 {
			t.Fatalf("bucket %d of %d empty over %d structured keys: %v", b, buckets, n, counts)
		}
	}
}

func BenchmarkPartitionKey(b *testing.B) {
	feats := map[string]float64{
		"msg_size_bytes": 4096,
		"comm_size":      48,
		"node_count":     4,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = PartitionKey("allreduce", feats, DefaultCacheQuantum)
	}
}

func ExamplePartitionKey() {
	feats := map[string]float64{"msg_size_bytes": 4096, "comm_size": 48}
	k1 := PartitionKey("allreduce", feats, DefaultCacheQuantum)
	k2 := PartitionKey("allreduce", feats, DefaultCacheQuantum)
	fmt.Println(k1 == k2)
	// Output: true
}
