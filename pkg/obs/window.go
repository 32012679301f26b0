package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// windowStripeCount is the number of independent lock stripes in a
// WindowRing, mirroring the histogram design: concurrent recorders spread
// round-robin across stripes so a hot ring never serializes on one mutex,
// and snapshots merge the stripes under their individual locks. Must be a
// power of two.
const windowStripeCount = 8

// WindowRing is a rolling, time-sliced latency/outcome accumulator: a ring
// of fixed-width time slots, each holding bucketed latency counts plus
// total/error tallies. Recording touches exactly one stripe slot (bucket
// index resolved outside the lock); snapshotting merges the slots that fall
// inside a requested trailing window. Slots recycle lazily — a slot is
// reset the first time it is written in a new time period — so an idle ring
// costs nothing. This is the backing store for multi-window SLO tracking.
type WindowRing struct {
	slotDur time.Duration
	slots   int
	bounds  []float64
	now     func() time.Time

	next    atomic.Uint32
	stripes [windowStripeCount]windowStripe
}

type windowStripe struct {
	mu    sync.Mutex
	slots []windowSlot
	// Pad to keep adjacent stripes off the same cache line under
	// concurrent recorders.
	_ [16]byte
}

// windowSlot accumulates one stripe's observations for one absolute time
// slot. idx is the absolute slot index (unix time / slot width) the data
// belongs to; a write with a newer idx resets the slot in place.
type windowSlot struct {
	idx    int64
	count  uint64
	errors uint64
	sum    float64
	counts []uint64 // per-bucket, non-cumulative; last slot is +Inf
}

// NewWindowRing builds a ring of slots slots of slotDur width over the given
// latency bucket bounds (seconds, strictly ascending; nil selects
// LatencyBuckets). The maximum supported window is slotDur*slots.
func NewWindowRing(slotDur time.Duration, slots int, bounds []float64) *WindowRing {
	if slotDur <= 0 {
		slotDur = time.Second
	}
	if slots <= 0 {
		slots = 60
	}
	if bounds == nil {
		bounds = LatencyBuckets
	}
	w := &WindowRing{
		slotDur: slotDur,
		slots:   slots,
		bounds:  append([]float64(nil), bounds...),
		now:     time.Now,
	}
	for i := range w.stripes {
		w.stripes[i].slots = make([]windowSlot, slots)
		for j := range w.stripes[i].slots {
			w.stripes[i].slots[j].idx = -1
			w.stripes[i].slots[j].counts = make([]uint64, len(bounds)+1)
		}
	}
	return w
}

// SetClock replaces the ring's time source, for tests. Call before any
// Record/Snapshot traffic.
func (w *WindowRing) SetClock(now func() time.Time) { w.now = now }

// MaxWindow is the longest trailing window the ring can answer.
func (w *WindowRing) MaxWindow() time.Duration { return w.slotDur * time.Duration(w.slots) }

// Record adds one observation (latency in seconds, success flag) to the
// current time slot of one stripe.
func (w *WindowRing) Record(seconds float64, ok bool) {
	abs := w.now().UnixNano() / int64(w.slotDur)
	bucket := sort.SearchFloat64s(w.bounds, seconds)
	st := &w.stripes[w.next.Add(1)&(windowStripeCount-1)]
	st.mu.Lock()
	s := &st.slots[abs%int64(w.slots)]
	if s.idx != abs {
		s.idx = abs
		s.count = 0
		s.errors = 0
		s.sum = 0
		for i := range s.counts {
			s.counts[i] = 0
		}
	}
	s.count++
	if !ok {
		s.errors++
	}
	s.sum += seconds
	s.counts[bucket]++
	st.mu.Unlock()
}

// WindowSnapshot is the merged view of one trailing window: its latency
// buckets (no recorded extremes) plus the error tally.
type WindowSnapshot struct {
	BucketSnapshot
	Errors uint64
}

// Snapshot merges every slot whose period lies inside the trailing window
// ending now (the current, partially filled slot included). Windows longer
// than MaxWindow are clamped. Stripes are locked one at a time, so the view
// is not a single atomic cut — fine for SLO monitoring, where per-read skew
// of a few in-flight observations is expected.
func (w *WindowRing) Snapshot(window time.Duration) WindowSnapshot {
	absNow := w.now().UnixNano() / int64(w.slotDur)
	n := int64(window / w.slotDur)
	if window%w.slotDur != 0 {
		n++
	}
	if n < 1 {
		n = 1
	}
	if n > int64(w.slots) {
		n = int64(w.slots)
	}
	oldest := absNow - n + 1

	snap := WindowSnapshot{BucketSnapshot: BucketSnapshot{Bounds: w.bounds, Counts: make([]uint64, len(w.bounds)+1)}}
	for i := range w.stripes {
		st := &w.stripes[i]
		st.mu.Lock()
		for j := range st.slots {
			s := &st.slots[j]
			if s.idx < oldest || s.idx > absNow {
				continue
			}
			snap.Count += s.count
			snap.Errors += s.errors
			snap.Sum += s.sum
			for b, c := range s.counts {
				snap.Counts[b] += c
			}
		}
		st.mu.Unlock()
	}
	return snap
}

// Summary rolls the trailing window up into a quantile Summary.
func (w *WindowRing) Summary(window time.Duration) Summary {
	return w.Snapshot(window).Summary()
}
