package selector

import (
	"encoding/binary"
	"math"
)

// featureKey derives the decision-cache key: the model generation id (so a
// hot-swap can never serve a decision computed by a previous generation —
// promoted and even rolled-back generations each address their own key
// space), the collective name, a NUL separator, then each feature of the
// ordered vector quantized to the given step and encoded as a fixed-width
// integer. Quantization makes near-identical float inputs (e.g. 48.0 vs
// 48.0000004) share a cache line; non-finite values fall back to their raw
// bit pattern so they still key deterministically instead of tripping
// float→int conversion edge cases.
func featureKey(gen uint64, collective string, x []float64, quantum float64) string {
	// Keys of the canonical feature space fit the stack buffer, so the
	// returned string is the only allocation.
	var stack [160]byte
	buf := stack[:0]
	if need := 8 + len(collective) + 1 + 8*len(x); need > len(stack) {
		buf = make([]byte, 0, need)
	}
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], gen)
	buf = append(buf, tmp[:]...)
	buf = append(buf, collective...)
	buf = append(buf, 0)
	for _, v := range x {
		var q uint64
		if math.IsNaN(v) || math.IsInf(v, 0) {
			q = math.Float64bits(v)
		} else {
			q = uint64(int64(math.Round(v / quantum)))
		}
		binary.LittleEndian.PutUint64(tmp[:], q)
		buf = append(buf, tmp[:]...)
	}
	return string(buf)
}

// PartitionKey hashes a selection request to a stable 64-bit partition
// key: the collective name, then each feature (sorted by name) quantized
// with exactly the same rule as the decision-cache key, folded through
// FNV-1a and finalized with splitmix64. Unlike featureKey it excludes
// the model generation — fleet-wide request partitioning must survive
// restarts and hot-swaps — and it is pure arithmetic on the wire values,
// so every gateway instance computes the same key for the same request.
// A quantum <= 0 falls back to DefaultCacheQuantum.
func PartitionKey(collective string, features map[string]float64, quantum float64) uint64 {
	if quantum <= 0 {
		quantum = DefaultCacheQuantum
	}
	// Requests carry the same feature names call after call: when the map has
	// exactly the keys of the cached sorted list, walk that list instead of
	// collecting and sorting them again.
	if cached := featureOrder.Load(); cached != nil && len(*cached) == len(features) {
		if key, ok := partitionKeyInOrder(collective, features, *cached, quantum); ok {
			return key
		}
	}
	key, _ := partitionKeyInOrder(collective, features, sortedFeatureNames(features), quantum)
	return key
}

// partitionKeyInOrder folds the features in the order of names, which has
// len(features) entries; ok is false when one of them is not a key of the map.
func partitionKeyInOrder(collective string, features map[string]float64, names []string, quantum float64) (key uint64, ok bool) {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(collective); i++ {
		h = (h ^ uint64(collective[i])) * fnvPrime
	}
	h = (h ^ 0) * fnvPrime // NUL separator, as in featureKey
	var tmp [8]byte
	for _, name := range names {
		v, present := features[name]
		if !present {
			return 0, false
		}
		for i := 0; i < len(name); i++ {
			h = (h ^ uint64(name[i])) * fnvPrime
		}
		h = (h ^ 0) * fnvPrime
		var q uint64
		if math.IsNaN(v) || math.IsInf(v, 0) {
			q = math.Float64bits(v)
		} else {
			q = uint64(int64(math.Round(v / quantum)))
		}
		binary.LittleEndian.PutUint64(tmp[:], q)
		for _, b := range tmp {
			h = (h ^ uint64(b)) * fnvPrime
		}
	}
	return Mix64(h), true
}

// Mix64 is the splitmix64 finalizer: a cheap, high-quality 64-bit bit
// mixer. Exported for the gateway's rendezvous hashing, which combines
// partition keys with per-replica seeds.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
