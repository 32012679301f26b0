package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

// fillWants evaluates every point with the reference pointer-walk forest of
// the bench's own parse of the served bundle. It is the answer key: the
// servers run the compiled evaluator behind a cache, the key uses neither.
func fillWants(ref *bundle.Bundle, pool []point) error {
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pool); i += workers {
				c, ok := ref.Collective(pool[i].coll)
				if !ok {
					errs[w] = fmt.Errorf("reference bundle has no collective %q", pool[i].coll)
					return
				}
				x, err := c.Vector(pool[i].features())
				if err != nil {
					errs[w] = err
					return
				}
				pred, err := c.Forest.Predict(x)
				if err != nil {
					errs[w] = err
					return
				}
				pool[i].want = pred.Class
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// algorithmName is the name a server must report for a class.
func algorithmName(coll string, class int) string {
	if names := selector.DefaultAlgorithms[coll]; class >= 0 && class < len(names) {
		return names[class]
	}
	return fmt.Sprintf("class_%d", class)
}

// scanField finds each `"key": value` in a JSON body, in document order, and
// hands the raw value (an integer's digits or a string's contents) to fn. It
// tolerates any whitespace, so compact and indented bodies read alike. A full
// decode of a 256-decision reply would cost the generator more than the
// server spends answering it; the set-up probe decodes one reply in full.
func scanField(body []byte, key string, fn func(raw []byte)) {
	pat := []byte(`"` + key + `"`)
	for {
		i := bytes.Index(body, pat)
		if i < 0 {
			return
		}
		body = body[i+len(pat):]
		j := skipSpace(body, 0)
		if j >= len(body) || body[j] != ':' {
			continue
		}
		j = skipSpace(body, j+1)
		if j >= len(body) {
			return
		}
		if body[j] == '"' {
			end := bytes.IndexByte(body[j+1:], '"')
			if end < 0 {
				return
			}
			fn(body[j+1 : j+1+end])
			body = body[j+2+end:]
			continue
		}
		end := j
		for end < len(body) && (body[end] == '-' || body[end] >= '0' && body[end] <= '9') {
			end++
		}
		fn(body[j:end])
		body = body[end:]
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

func atoi(raw []byte) int {
	if len(raw) == 0 {
		return -1
	}
	n := 0
	for _, c := range raw {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// checkDecisions compares the decisions in a reply with pool[first:first+n]
// (wrapping), records the classes served, and returns how many decisions are
// wrong. A reply with too few or too many decisions fails every item.
func checkDecisions(body []byte, pool []point, first, n int, served []int16) int {
	classes, names, wrongClass, wrongName := 0, 0, 0, 0
	scanField(body, "class", func(raw []byte) {
		if classes < n {
			i := (first + classes) % len(pool)
			if got := atoi(raw); got != pool[i].want {
				wrongClass++
			} else if served != nil {
				served[i] = int16(got)
			}
		}
		classes++
	})
	scanField(body, "algorithm", func(raw []byte) {
		if names < n {
			p := &pool[(first+names)%len(pool)]
			if string(raw) != algorithmName(p.coll, p.want) {
				wrongName++
			}
		}
		names++
	})
	switch {
	case classes != n || names != n:
		return n
	case wrongName > wrongClass:
		return wrongName
	}
	return wrongClass
}

// quality accumulates the paper's metrics: how the chosen algorithms' modelled
// collective run time compares with the oracle's best and with the library
// default (class 0).
type quality struct {
	n, agree int
	regrets  []float64
	logGain  float64
}

// add scores one decision given the oracle's per-class costs. A class the
// oracle does not price (the paper bundle's alltoall "two_proc") counts as a
// disagreement and stays out of the cost ratios.
func (q *quality) add(costs []float64, chosen int) {
	q.n++
	if chosen < 0 || chosen >= len(costs) {
		return
	}
	best, _ := argMinMax(costs)
	if chosen == best {
		q.agree++
	}
	q.regrets = append(q.regrets, costs[chosen]/costs[best]-1)
	q.logGain += math.Log(costs[0] / costs[chosen])
}

func (q *quality) agreement() float64  { return float64(q.agree) / float64(q.n) }
func (q *quality) regretMean() float64 { return mean(q.regrets) }
func (q *quality) regretP99() float64  { return percentile(sorted(q.regrets), 0.99) }
func (q *quality) speedup() float64    { return math.Exp(q.logGain / float64(len(q.regrets))) }

// scoreQuality scores the first n pool points by the class that was served
// for each, and reports how many were never served.
func scoreQuality(pool []point, served []int16, n int) (q quality, unserved int) {
	for i := 0; i < n; i++ {
		if served[i] < 0 {
			unserved++
			continue
		}
		costs, err := perfmodel.Costs(pool[i].coll, pool[i].features())
		if err != nil {
			unserved++
			continue
		}
		q.add(costs, int(served[i]))
	}
	return q, unserved
}

func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// percentile reads the q-quantile of an ascending slice (nearest rank).
func percentile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	return asc[i]
}

func median(v []float64) float64 { return percentile(sorted(v), 0.5) }

// best is the mean of the best tenth of the values, at least one of them:
// the lowest, or the highest when higher is better.
func best(v []float64, higher bool) float64 {
	asc := sorted(v)
	k := (len(asc) + 9) / 10
	if higher {
		return mean(asc[len(asc)-k:])
	}
	return mean(asc[:k])
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
