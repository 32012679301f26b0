package modelhealth

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
)

// Anomaly reasons, a bitmask so one decision can trip several.
const (
	// ReasonLowMargin: the vote margin fell below the -margin-warn
	// threshold — the forest nearly tied two algorithms.
	ReasonLowMargin uint8 = 1 << iota
	// ReasonDriftAlert: the decision happened while feature drift stood at
	// ALERT, so the model was operating off its training distribution.
	ReasonDriftAlert
	// ReasonLatencyTail: the select latency exceeded the rolling p99
	// threshold derived from the active generation's latency sketch.
	ReasonLatencyTail
)

// reasonNames renders a reason mask for reports, in bit order.
func reasonNames(mask uint8) []string {
	var out []string
	if mask&ReasonLowMargin != 0 {
		out = append(out, "low_margin")
	}
	if mask&ReasonDriftAlert != 0 {
		out = append(out, "drift_alert")
	}
	if mask&ReasonLatencyTail != 0 {
		out = append(out, "latency_tail")
	}
	return out
}

// flightStripes is the number of independent ring stripes. Writers pick a
// stripe round-robin off an atomic sequence, so concurrent anomaly bursts
// spread across locks instead of serializing. Must be a power of two.
const flightStripes = 8

// maxFlightFeatures bounds the feature vector captured per entry: the
// widest vector a collective can have, as the selector's stack buffer.
const maxFlightFeatures = bundle.MaxFeatures

// flightEntry is one captured decision. Fixed-size by construction —
// feature values live in an inline array, strings are header copies — so
// recording into a preallocated slot allocates nothing.
type flightEntry struct {
	seq        uint64 // 0 = slot never written
	unixNanos  int64
	generation uint64
	collective string
	algorithm  string
	margin     float64
	cached     bool
	latencyNS  int64
	reasons    uint8
	drift      DriftStatus
	nFeat      uint8
	canon      [maxFlightFeatures]uint8
	vals       [maxFlightFeatures]float64
}

type flightStripe struct {
	mu      sync.Mutex
	entries []flightEntry
	next    int
	// Pad stripes apart so adjacent ring cursors don't false-share.
	_ [32]byte
}

// FlightRecorder is the bounded lock-striped anomaly ring: the last N
// anomalous decisions with full context, overwritten oldest-first per
// stripe. Writes are allocation-free; Dump reconstructs readable records.
type FlightRecorder struct {
	stripes  [flightStripes]flightStripe
	seq      atomic.Uint64
	capacity int
}

// NewFlightRecorder builds a recorder holding at least size entries
// (rounded up to a multiple of the stripe count; minimum one per stripe).
func NewFlightRecorder(size int) *FlightRecorder {
	perStripe := (size + flightStripes - 1) / flightStripes
	if perStripe < 1 {
		perStripe = 1
	}
	r := &FlightRecorder{capacity: perStripe * flightStripes}
	for i := range r.stripes {
		r.stripes[i].entries = make([]flightEntry, perStripe)
	}
	return r
}

// Capacity returns the actual ring capacity.
func (r *FlightRecorder) Capacity() int { return r.capacity }

// Record captures one anomalous decision. canonIdx and x are copied into
// the slot (truncated past maxFlightFeatures); nothing is retained.
func (r *FlightRecorder) Record(gen uint64, collective, algorithm string, canonIdx []int, x []float64,
	margin float64, cached bool, latencyNS int64, reasons uint8, drift DriftStatus) {
	seq := r.seq.Add(1)
	s := &r.stripes[seq&(flightStripes-1)]
	s.mu.Lock()
	e := &s.entries[s.next]
	s.next++
	if s.next == len(s.entries) {
		s.next = 0
	}
	e.seq = seq
	e.unixNanos = time.Now().UnixNano()
	e.generation = gen
	e.collective = collective
	e.algorithm = algorithm
	e.margin = margin
	e.cached = cached
	e.latencyNS = latencyNS
	e.reasons = reasons
	e.drift = drift
	n := len(canonIdx)
	if n > len(x) {
		n = len(x)
	}
	if n > maxFlightFeatures {
		n = maxFlightFeatures
	}
	e.nFeat = uint8(n)
	for i := 0; i < n; i++ {
		e.canon[i] = uint8(canonIdx[i])
		e.vals[i] = x[i]
	}
	s.mu.Unlock()
}

// Occupancy returns the number of slots holding a record.
func (r *FlightRecorder) Occupancy() int {
	n := 0
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		for j := range s.entries {
			if s.entries[j].seq != 0 {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// FlightRecord is one dumped anomaly, as served on /debug/flightrecorder.
type FlightRecord struct {
	Seq        uint64             `json:"seq"`
	Time       time.Time          `json:"time"`
	Generation uint64             `json:"generation"`
	Collective string             `json:"collective"`
	Algorithm  string             `json:"algorithm"`
	Margin     float64            `json:"margin"`
	Cached     bool               `json:"cached"`
	LatencyNS  int64              `json:"latency_ns"`
	Reasons    []string           `json:"reasons"`
	Drift      string             `json:"drift_status"`
	Features   map[string]float64 `json:"features"`
}

// Dump returns every captured record, oldest first by sequence number.
// Feature names are reconstructed from the canonical index table.
func (r *FlightRecorder) Dump() []FlightRecord {
	var out []FlightRecord
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		for j := range s.entries {
			e := &s.entries[j]
			if e.seq == 0 {
				continue
			}
			rec := FlightRecord{
				Seq:        e.seq,
				Time:       time.Unix(0, e.unixNanos).UTC(),
				Generation: e.generation,
				Collective: e.collective,
				Algorithm:  e.algorithm,
				Margin:     e.margin,
				Cached:     e.cached,
				LatencyNS:  e.latencyNS,
				Reasons:    reasonNames(e.reasons),
				Drift:      e.drift.String(),
				Features:   make(map[string]float64, e.nFeat),
			}
			for k := 0; k < int(e.nFeat); k++ {
				ci := int(e.canon[k])
				if ci < len(bundle.CanonicalFeatures) {
					rec.Features[bundle.CanonicalFeatures[ci]] = e.vals[k]
				}
			}
			out = append(out, rec)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}
