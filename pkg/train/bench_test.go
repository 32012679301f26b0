package train_test

import (
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/dataset"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/train"
)

// benchMatrix materializes one collective's sweep as a training matrix.
func benchMatrix(b *testing.B) (x [][]float64, y []int, classes int) {
	b.Helper()
	ds, err := perfmodel.Sweep(perfmodel.SweepConfig{Collectives: []string{"allgather"}})
	if err != nil {
		b.Fatal(err)
	}
	names := ds.Algorithms["allgather"]
	for i := range ds.Examples {
		ex := &ds.Examples[i]
		row := make([]float64, 0, len(ex.Features))
		for _, name := range []string{"num_nodes", "ppn", "log2_msg_size", "mem_bw_gbs", "numa_nodes", "link_speed_gbps", "link_width"} {
			row = append(row, ex.Features[name])
		}
		x = append(x, row)
		y = append(y, ex.Label)
	}
	return x, y, len(names)
}

// BenchmarkTrainForest measures end-to-end forest training throughput on
// one collective's full default sweep (~2k samples, 7 features).
func BenchmarkTrainForest(b *testing.B) {
	x, y, classes := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := train.TrainForest(x, y, classes, train.Config{Trees: 24, MaxDepth: 12, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.OOBAccuracy == 0 {
			b.Fatal("implausible zero OOB accuracy")
		}
	}
	b.ReportMetric(float64(len(x)*24), "sampletrees/op")
}

// BenchmarkTrainForestSerial is the single-worker baseline for the
// parallel speedup above.
func BenchmarkTrainForestSerial(b *testing.B) {
	x, y, classes := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := train.TrainForest(x, y, classes, train.Config{Trees: 24, MaxDepth: 12, Seed: 1, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainBundle measures the full dataset → multi-collective
// bundle pipeline on a reduced sweep.
func BenchmarkTrainBundle(b *testing.B) {
	ds, err := perfmodel.Sweep(perfmodel.SweepConfig{
		Nodes: []float64{1, 2, 4, 8, 16},
		PPN:   []float64{1, 4, 16},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := train.TrainBundle(ds, train.BundleConfig{
			Config: train.Config{Trees: 16, MaxDepth: 10, Seed: 1},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainBundleDefaultSweep trains exactly what `pmlmpi-train
// -synthetic-sweep -seed 1` and the repo benchmark train: the default
// sweep, deduplicated, split 80/20 with seed 1, under Config{Seed: 1}.
// Only TrainBundle is timed.
func BenchmarkTrainBundleDefaultSweep(b *testing.B) {
	swept, err := perfmodel.Sweep(perfmodel.SweepConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset.New(perfmodel.Table())
	if err := ds.Merge(swept); err != nil {
		b.Fatal(err)
	}
	ds.Dedup()
	trainSet, _ := ds.Split(0.2, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := train.TrainBundle(trainSet, train.BundleConfig{Config: train.Config{Seed: 1}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBundleEncode measures bundle export (the publish step of the
// train → publish → hot-swap loop).
func BenchmarkBundleEncode(b *testing.B) {
	ds, err := perfmodel.Sweep(perfmodel.SweepConfig{
		Nodes: []float64{1, 2, 4, 8, 16},
		PPN:   []float64{1, 4, 16},
	})
	if err != nil {
		b.Fatal(err)
	}
	bun, _, err := train.TrainBundle(ds, train.BundleConfig{
		Config: train.Config{Trees: 16, MaxDepth: 10, Seed: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		data, err := bun.Encode()
		if err != nil {
			b.Fatal(err)
		}
		size = len(data)
	}
	b.SetBytes(int64(size))
}
