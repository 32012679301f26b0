package train

import (
	"fmt"
	"sort"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/dataset"
)

// BundleConfig tunes TrainBundle: the per-forest trainer settings plus
// bundle provenance.
type BundleConfig struct {
	Config
	// TrainedOn is the provenance list recorded in the bundle (the
	// systems/sweeps the dataset came from).
	TrainedOn []string
}

// Report summarizes one trained collective model.
type Report struct {
	Collective  string              `json:"collective"`
	Examples    int                 `json:"examples"`
	Classes     int                 `json:"classes"`
	Trees       int                 `json:"trees"`
	OOBAccuracy float64             `json:"oob_accuracy"`
	Importance  []bundle.Importance `json:"importance"`
}

// featureSubset returns the canonical features every example of the slice
// yields — a request feature it carries, or a derived feature whose inputs
// it carries — as (canonical indices, names) sorted by canonical index,
// the exact layout bundle validation requires.
func featureSubset(examples []dataset.Example) ([]int, []string, error) {
	if len(examples) == 0 {
		return nil, nil, fmt.Errorf("no examples")
	}
	var idxs []int
	var names []string
	for i, name := range bundle.CanonicalFeatures {
		inAll := true
		for e := range examples {
			if _, missing := bundle.FeatureValue(examples[e].Features, i); missing != "" {
				inAll = false
				break
			}
		}
		if inAll {
			idxs = append(idxs, i)
			names = append(names, name)
		}
	}
	if len(idxs) == 0 {
		return nil, nil, fmt.Errorf("no canonical feature is present in every example")
	}
	return idxs, names, nil
}

// TrainBundle fits one random forest per collective in the dataset and
// assembles them into a serving-ready bundle that round-trips through
// bundle.Parse. Each collective's feature subset is the canonical
// features all of its examples yield (featureSubset); its class space is the
// dataset's algorithm table. Deterministic for a fixed cfg.Seed.
func TrainBundle(ds *dataset.Dataset, cfg BundleConfig) (*bundle.Bundle, []Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, fmt.Errorf("train: %w", err)
	}
	if ds.Len() == 0 {
		return nil, nil, fmt.Errorf("train: dataset is empty")
	}
	byColl := ds.ByCollective()
	collectives := make([]string, 0, len(byColl))
	for name := range byColl {
		collectives = append(collectives, name)
	}
	sort.Strings(collectives)

	b := &bundle.Bundle{
		Version:     bundle.SupportedVersion,
		TrainedOn:   cfg.TrainedOn,
		Collectives: make(map[string]*bundle.Collective, len(collectives)),
	}
	// Embed the training distribution so the serving side can score live
	// feature drift against it (bundle.FeatureStats, optional metadata).
	stats, err := ComputeFeatureStats(ds, DefaultStatsBins)
	if err != nil {
		return nil, nil, fmt.Errorf("train: %w", err)
	}
	b.Stats = stats
	var reports []Report
	for op, name := range collectives {
		examples := byColl[name]
		algos, ok := ds.Algorithms[name]
		if !ok {
			return nil, nil, fmt.Errorf("train: collective %q has examples but no algorithm table entry", name)
		}
		idxs, featNames, err := featureSubset(examples)
		if err != nil {
			return nil, nil, fmt.Errorf("train: collective %q: %w", name, err)
		}
		x := make([][]float64, len(examples))
		y := make([]int, len(examples))
		for i := range examples {
			row := make([]float64, len(idxs))
			for j, idx := range idxs {
				row[j], _ = bundle.FeatureValue(examples[i].Features, idx)
			}
			x[i] = row
			if examples[i].Label < 0 || examples[i].Label >= len(algos) {
				return nil, nil, fmt.Errorf("train: collective %q example %d: label %d outside [0,%d)",
					name, i, examples[i].Label, len(algos))
			}
			y[i] = examples[i].Label
		}
		res, err := TrainForest(x, y, len(algos), cfg.Config)
		if err != nil {
			return nil, nil, fmt.Errorf("train: collective %q: %w", name, err)
		}
		imp := make([]bundle.Importance, len(featNames))
		for j := range featNames {
			imp[j] = bundle.Importance{Name: featNames[j], Index: idxs[j], Importance: res.Importance[j]}
		}
		b.Collectives[name] = &bundle.Collective{
			Name:           name,
			Op:             op,
			FullImportance: imp,
			Features:       idxs,
			FeatureNames:   featNames,
			Forest:         res.Forest,
			// The bundle schema records one scalar quality figure per
			// collective; for natively trained models it is the OOB
			// accuracy of the ensemble.
			CVAUC: res.OOBAccuracy,
		}
		reports = append(reports, Report{
			Collective:  name,
			Examples:    len(examples),
			Classes:     len(algos),
			Trees:       len(res.Forest.Trees),
			OOBAccuracy: res.OOBAccuracy,
			Importance:  imp,
		})
	}
	return b, reports, nil
}

// Evaluate scores a bundle against a labeled dataset, returning accuracy
// per collective (fraction of examples whose forest argmax matches the
// label). Collectives in the dataset but absent from the bundle score 0.
func Evaluate(b *bundle.Bundle, ds *dataset.Dataset) (map[string]float64, error) {
	correct := map[string]int{}
	total := map[string]int{}
	for i := range ds.Examples {
		ex := &ds.Examples[i]
		total[ex.Collective]++
		c, ok := b.Collective(ex.Collective)
		if !ok {
			continue
		}
		x, err := c.Vector(ex.Features)
		if err != nil {
			return nil, fmt.Errorf("evaluate: %s example %d: %w", ex.Collective, i, err)
		}
		pred, err := c.Forest.Predict(x)
		if err != nil {
			return nil, fmt.Errorf("evaluate: %s example %d: %w", ex.Collective, i, err)
		}
		if pred.Class == ex.Label {
			correct[ex.Collective]++
		}
	}
	out := make(map[string]float64, len(total))
	for coll, n := range total {
		out[coll] = float64(correct[coll]) / float64(n)
	}
	return out, nil
}
