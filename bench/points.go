package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/bits"
	"sort"
	"strconv"

	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
)

// rng is splitmix64: tiny, and its output for a seed is fixed by this file
// rather than by a library version, which the pinned payload hashes need.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ (stream+1)*0xd1342543de82ef95}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// system is the one hardware profile every request describes: the balanced
// cluster of the training sweep, so requests sit inside the sweep's hull.
var system = perfmodel.DefaultSystems[1]

// point is one request: a collective on a job shape. num_nodes and ppn are
// integers on the sweep's axes; log2_msg_size is continuous, so points fall
// between the sweep's grid lines. P = nodes*ppn >= 2 keeps every oracle cost
// above zero.
type point struct {
	coll       string
	nodes, ppn int
	log2Msg    float64
	payload    []byte // the /v1/select body
	want       int    // class the reference evaluator picks
}

func (p *point) features() map[string]float64 {
	return system.Features(float64(p.nodes), float64(p.ppn), p.log2Msg)
}

// cacheQuantum is the server's default feature quantisation. No two points of
// a stream share a quantised key, so a cold stream cannot hit by accident and
// a cached answer was always computed from the very features asked about.
const cacheQuantum = 1e-6

// pointStream draws distinct points for the given collectives.
type pointStream struct {
	r     *rng
	colls []string
	seen  map[uint64]struct{}
}

func newPointStream(seed int64, stream uint64, colls []string) *pointStream {
	return &pointStream{r: newRNG(seed, stream), colls: colls, seen: make(map[uint64]struct{})}
}

func (s *pointStream) next() point {
	for {
		ci := s.r.intn(len(s.colls))
		p := point{
			coll:    s.colls[ci],
			nodes:   2 + s.r.intn(31),
			ppn:     1 + s.r.intn(32),
			log2Msg: 2 + 20*s.r.float(),
		}
		key := uint64(ci)<<58 | uint64(p.nodes)<<52 | uint64(p.ppn)<<46 | uint64(math.Round(p.log2Msg/cacheQuantum))
		if _, dup := s.seen[key]; dup {
			continue
		}
		s.seen[key] = struct{}{}
		return p
	}
}

// points is the request pool of a workload: n distinct points with their
// /v1/select bodies encoded.
func points(seed int64, n int, colls []string) []point {
	s := newPointStream(seed, 0, colls)
	pool := make([]point, n)
	for i := range pool {
		pool[i] = s.next()
		pool[i].payload = appendSelect(nil, &pool[i])
	}
	return pool
}

var featureNames = func() []string {
	var names []string
	for name := range system.Features(2, 1, 2) {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}()

func appendFeatures(b []byte, f map[string]float64) []byte {
	b = append(b, `"features":{`...)
	for i, name := range featureNames {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, name...)
		b = append(b, `":`...)
		b = strconv.AppendFloat(b, f[name], 'f', -1, 64)
	}
	return append(b, '}')
}

// appendSelect encodes one /v1/select body. It is the load generator's own
// encoder (loadgen.encode_ns times it), and runs before a call is timed.
func appendSelect(b []byte, p *point) []byte {
	b = append(b, `{"collective":"`...)
	b = append(b, p.coll...)
	b = append(b, `",`...)
	b = appendFeatures(b, p.features())
	return append(b, '}')
}

// appendBatch joins pool[first:first+n] (wrapping) into one
// /v1/select/batch body.
func appendBatch(b []byte, pool []point, first, n int) []byte {
	b = append(b, `{"requests":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, pool[(first+i)%len(pool)].payload...)
	}
	return append(b, `]}`...)
}

// Feedback outcomes, as /v1/feedback spells them.
const (
	fbAccepted    = "accepted"
	fbDuplicate   = "duplicate"
	fbQuarantined = "quarantined"
)

// fbOp is one /v1/feedback post and the outcome the store must give it.
type fbOp struct {
	payload []byte
	want    string
}

// fbStream is one client's feedback posts. Of every twenty, seventeen are new
// oracle-labelled records (accepted: append + fsync), two repeat a record this
// client had accepted three posts earlier (duplicate) and one names as winner
// an algorithm the oracle prices above the store's 3x guard (quarantined).
type fbStream struct {
	pts    *pointStream
	k      int
	recent [4][]byte
	nNew   int
}

// quarantineRatio is how far above the oracle's best the claimed winner of a
// poisoned record sits; the store's guard trips at 3.
const quarantineRatio = 3.5

func newFBStream(seed int64, client int) *fbStream {
	return &fbStream{pts: newPointStream(seed, 1+uint64(client), perfmodel.CollectiveNames())}
}

func (s *fbStream) next() fbOp {
	slot := s.k % 20
	s.k++
	switch {
	case (slot == 7 || slot == 14) && s.nNew >= 3:
		return fbOp{payload: s.recent[(s.nNew-3)%len(s.recent)], want: fbDuplicate}
	case slot == 19:
		for {
			p := s.pts.next()
			costs, _ := perfmodel.Costs(p.coll, p.features())
			best, worst := argMinMax(costs)
			if costs[worst] < quarantineRatio*costs[best] {
				continue
			}
			costs[best], costs[worst] = costs[worst], costs[best]
			return fbOp{payload: appendRecord(nil, &p, costs), want: fbQuarantined}
		}
	default:
		p := s.pts.next()
		costs, _ := perfmodel.Costs(p.coll, p.features())
		payload := appendRecord(nil, &p, costs)
		s.recent[s.nNew%len(s.recent)] = payload
		s.nNew++
		return fbOp{payload: payload, want: fbAccepted}
	}
}

func argMinMax(v []float64) (min, max int) {
	for i := range v {
		if v[i] < v[min] {
			min = i
		}
		if v[i] > v[max] {
			max = i
		}
	}
	return min, max
}

// appendRecord encodes one feedback record whose per-algorithm latencies are
// the given costs (seconds) in microseconds.
func appendRecord(b []byte, p *point, costs []float64) []byte {
	b = append(b, `{"collective":"`...)
	b = append(b, p.coll...)
	b = append(b, `",`...)
	b = appendFeatures(b, p.features())
	b = append(b, `,"latency_us":{`...)
	for i, a := range perfmodel.Collectives[p.coll] {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, a.Name...)
		b = append(b, `":`...)
		b = strconv.AppendFloat(b, costs[i]*1e6, 'g', -1, 64)
	}
	return append(b, `}}`...)
}

// streamHash is the SHA-256 over everything a workload would send for a seed:
// its select pool in order, then for a feedback workload the first posts of
// two clients.
func streamHash(w workload, seed int64, colls []string, poolSize int) string {
	h := sha256.New()
	for _, p := range points(seed, poolSize, colls) {
		h.Write(p.payload)
		h.Write([]byte{'\n'})
	}
	if w.feedback {
		for client := 0; client < 2; client++ {
			s := newFBStream(seed, client)
			for i := 0; i < 2000; i++ {
				h.Write(s.next().payload)
				h.Write([]byte{'\n'})
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
