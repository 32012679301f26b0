package main

import (
	"fmt"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/dataset"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/train"
)

// paperBundlePath is the paper's pre-trained bundle (9.2 MB, allgather and
// alltoall, 60 and 100 trees), relative to the repository root.
const paperBundlePath = ".pmlbench/bundle_all_full.json"

// trainSweep does in-process what `pmlmpi-train -synthetic-sweep -seed 1`
// does (sweep, dedup, 80/20 split, default forests) and returns the encoded
// bundle with the time each half took. With small set it trains a toy bundle
// in milliseconds, for the smoke pass.
func trainSweep(small bool) (data []byte, sweepDur, trainDur time.Duration, err error) {
	cfg := perfmodel.SweepConfig{}
	tc := train.Config{Seed: 1}
	if small {
		cfg = perfmodel.SweepConfig{
			Nodes:        []float64{2, 8, 32},
			PPN:          []float64{1, 8, 32},
			Log2MsgSizes: []float64{2, 12, 22},
		}
		tc.Trees = 6
	}
	start := time.Now()
	swept, err := perfmodel.Sweep(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	sweepDur = time.Since(start)

	start = time.Now()
	ds := dataset.New(perfmodel.Table())
	if err := ds.Merge(swept); err != nil {
		return nil, 0, 0, err
	}
	ds.Dedup()
	trainSet, _ := ds.Split(0.2, tc.Seed)
	b, _, err := train.TrainBundle(trainSet, train.BundleConfig{Config: tc})
	if err != nil {
		return nil, 0, 0, err
	}
	data, err = b.Encode()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("encode sweep bundle: %w", err)
	}
	return data, sweepDur, time.Since(start), nil
}
