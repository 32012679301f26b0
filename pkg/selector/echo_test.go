package selector_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/admin"
	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// TestCacheHitEchoesRequestFeatures pins that a cache hit answers for the
// request that asked, not for the one that filled the cache. The forest
// reads 5 of the 14 canonical features, so two requests equal on those five
// and different on the rest share a key: the second is a hit, and its reply
// must carry its own features — through single and batch calls, owned and
// not, a repeat inside one batch, and the select endpoint.
func TestCacheHitEchoesRequestFeatures(t *testing.T) {
	b, err := synth.New(synth.Config{Seed: 71, Trees: 8, Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	reads := map[string]bool{}
	for _, name := range b.Collectives["allgather"].FeatureNames {
		reads[name] = true
	}
	if len(reads) >= len(bundle.CanonicalFeatures) {
		t.Fatalf("the forest reads all %d features; the test needs a subset", len(reads))
	}
	// pair returns a request and its twin, which differs from it on every
	// feature the forest does not read.
	pair := func(seed int64) (first, second map[string]float64) {
		first = synth.Points(seed, 1)[0]
		second = make(map[string]float64, len(first))
		for name, v := range first {
			if !reads[name] {
				v += 1000
			}
			second[name] = v
		}
		return first, second
	}
	newSelector := func() (*selector.Selector, *obs.Obs) {
		o := obs.NewForTest()
		o.Logger.SetLevel(obs.LevelError)
		return selector.New(b, o, selector.Config{Cache: cache.New(cache.Config{}, o.Registry)}), o
	}
	ctx := context.Background()
	single := func(owned bool) func(*testing.T, *selector.Selector, map[string]float64) *selector.Decision {
		return func(t *testing.T, s *selector.Selector, f map[string]float64) *selector.Decision {
			sel := s.Select
			if owned {
				sel = s.SelectOwned
			}
			d, err := sel(ctx, "allgather", f)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
	}
	batch := func(owned bool) func(*testing.T, *selector.Selector, map[string]float64) *selector.Decision {
		return func(t *testing.T, s *selector.Selector, f map[string]float64) *selector.Decision {
			sel := s.SelectBatch
			if owned {
				sel = s.SelectBatchOwned
			}
			r := sel(ctx, []selector.BatchRequest{{Collective: "allgather", Features: f}})[0]
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			return r.Decision
		}
	}
	for _, tc := range []struct {
		name string
		call func(*testing.T, *selector.Selector, map[string]float64) *selector.Decision
	}{
		{"Select", single(false)},
		{"SelectOwned", single(true)},
		{"SelectBatch", batch(false)},
		{"SelectBatchOwned", batch(true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newSelector()
			first, second := pair(72)
			cold := tc.call(t, s, first)
			hit := tc.call(t, s, second)
			if cold.Cached || !hit.Cached {
				t.Fatalf("cached = %v then %v, want false then true", cold.Cached, hit.Cached)
			}
			if !reflect.DeepEqual(cold.Features, first) || !reflect.DeepEqual(hit.Features, second) {
				t.Errorf("replies echo %v and %v, want each request's own features %v and %v",
					cold.Features, hit.Features, first, second)
			}
			if recent := s.Recent(1); !reflect.DeepEqual(recent[0].Features, second) {
				t.Errorf("the ring records the hit with features %v, want %v", recent[0].Features, second)
			}
		})
	}

	t.Run("repeat in one batch", func(t *testing.T) {
		s, _ := newSelector()
		first, second := pair(73)
		res := s.SelectBatchOwned(ctx, []selector.BatchRequest{
			{Collective: "allgather", Features: first},
			{Collective: "allgather", Features: second},
		})
		if res[0].Err != nil || res[1].Err != nil {
			t.Fatal(res[0].Err, res[1].Err)
		}
		if !res[1].Decision.Cached || !reflect.DeepEqual(res[1].Decision.Features, second) {
			t.Errorf("repeat: cached %v, features %v; want true, %v", res[1].Decision.Cached, res[1].Decision.Features, second)
		}
	})

	t.Run("admin.ServeHTTP", func(t *testing.T) {
		s, o := newSelector()
		srv := admin.New(s, o, admin.Config{})
		first, second := pair(74)
		type reply struct {
			Cached   bool               `json:"cached"`
			Features map[string]float64 `json:"features"`
		}
		var replies []reply
		for _, f := range []map[string]float64{first, second} {
			body, err := json.Marshal(selector.BatchRequest{Collective: "allgather", Features: f})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			var r reply
			if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
				t.Fatal(err)
			}
			replies = append(replies, r)
		}
		if !replies[1].Cached || !reflect.DeepEqual(replies[1].Features, second) {
			t.Errorf("second reply: cached %v, features %v; want true, %v", replies[1].Cached, replies[1].Features, second)
		}
	})
}
