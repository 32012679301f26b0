// Command pmlmpi-train is the offline half of the PML-MPI loop: it builds
// a labeled dataset (benchmark records from CSV/JSONL files, an analytical
// perfmodel sweep, or both), trains one random forest per collective, and
// writes a serving-ready bundle atomically — ready for pmlmpi-server's
// registry watcher to discover and hot-swap with zero downtime.
//
// Examples:
//
//	pmlmpi-train -synthetic-sweep -out model.json
//	pmlmpi-train -dataset bench.csv -dataset extra.jsonl -trees 64 -out model.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/dataset"
	"github.com/pml-mpi/pmlmpi/pkg/perfmodel"
	"github.com/pml-mpi/pmlmpi/pkg/train"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// options is the flag-derived trainer configuration.
type options struct {
	datasets    multiFlag
	sweep       bool
	collectives string

	trees       int
	depth       int
	minLeaf     int
	featureFrac float64
	testFrac    float64
	seed        int64

	out       string
	format    string
	trainedOn string
	quiet     bool
}

// report is the JSON training summary printed to stdout.
type report struct {
	Examples    int                `json:"examples"`
	Deduped     int                `json:"deduped"`
	TrainSize   int                `json:"train_size"`
	TestSize    int                `json:"test_size"`
	Seed        int64              `json:"seed"`
	Collectives []train.Report     `json:"collectives"`
	HeldOut     map[string]float64 `json:"held_out_accuracy,omitempty"`
	Out         string             `json:"out"`
	SizeBytes   int                `json:"size_bytes"`
	Hash        string             `json:"hash"`
}

// defineFlags registers every pmlmpi-train flag on fs and returns the
// options they parse into.
func defineFlags(fs *flag.FlagSet) *options {
	opts := &options{}
	fs.Var(&opts.datasets, "dataset", "benchmark records to ingest (.csv/.jsonl; repeatable)")
	fs.BoolVar(&opts.sweep, "synthetic-sweep", false, "add an analytical perfmodel sweep to the training set")
	fs.StringVar(&opts.collectives, "collectives", "", "comma-separated collectives for -synthetic-sweep (default: all supported)")
	fs.IntVar(&opts.trees, "trees", 48, "trees per collective forest")
	fs.IntVar(&opts.depth, "depth", 14, "maximum tree depth")
	fs.IntVar(&opts.minLeaf, "min-samples-leaf", 1, "minimum samples per leaf")
	fs.Float64Var(&opts.featureFrac, "feature-frac", 0.8, "per-tree feature subsample fraction in (0,1]")
	fs.Float64Var(&opts.testFrac, "test-frac", 0.2, "held-out fraction for the accuracy report (0 trains on everything)")
	fs.Int64Var(&opts.seed, "seed", 1, "random seed (equal seeds and inputs reproduce the bundle byte-for-byte)")
	fs.StringVar(&opts.out, "out", "bundle_trained.json", "output bundle path (written atomically)")
	fs.StringVar(&opts.format, "format", "json", "bundle encoding: json (canonical) or binary (compact PMLB)")
	fs.StringVar(&opts.trainedOn, "trained-on", "", "comma-separated provenance labels (default: dataset file names and sweep system names)")
	fs.BoolVar(&opts.quiet, "quiet", false, "suppress the JSON training report on stdout")
	return opts
}

func main() {
	opts := defineFlags(flag.CommandLine)
	flag.Parse()

	if err := run(*opts); err != nil {
		fmt.Fprintf(os.Stderr, "pmlmpi-train: %v\n", err)
		os.Exit(1)
	}
}

// trainConfig is the forest configuration the flags select.
func (o options) trainConfig() train.Config {
	return train.Config{
		Trees:          o.trees,
		MaxDepth:       o.depth,
		MinSamplesLeaf: o.minLeaf,
		FeatureFrac:    o.featureFrac,
		Seed:           o.seed,
	}
}

// validate reports every bad flag at once, before any work starts.
func (o options) validate() error {
	var errs []error
	if !o.sweep && len(o.datasets) == 0 {
		errs = append(errs, errors.New("nothing to train on: pass -dataset files and/or -synthetic-sweep"))
	}
	if o.format != "json" && o.format != "binary" {
		errs = append(errs, fmt.Errorf("unknown -format %q (want \"json\" or \"binary\")", o.format))
	}
	if !(o.testFrac >= 0 && o.testFrac < 1) {
		errs = append(errs, fmt.Errorf("-test-frac = %v: want a fraction in [0,1) (0 trains on everything)", o.testFrac))
	}
	errs = append(errs, o.trainConfig().Validate())
	return errors.Join(errs...)
}

func run(opts options) error {
	if err := opts.validate(); err != nil {
		return err
	}

	table := perfmodel.Table()
	ds := dataset.New(table)
	var provenance []string

	for _, path := range opts.datasets {
		part, err := dataset.ReadFile(path, table)
		if err != nil {
			return err
		}
		if err := ds.Merge(part); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		provenance = append(provenance, path)
	}
	if opts.sweep {
		cfg := perfmodel.SweepConfig{}
		if opts.collectives != "" {
			cfg.Collectives = strings.Split(opts.collectives, ",")
		}
		swept, err := perfmodel.Sweep(cfg)
		if err != nil {
			return err
		}
		if err := ds.Merge(swept); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		for _, sys := range perfmodel.DefaultSystems {
			provenance = append(provenance, "perfmodel/"+sys.Name)
		}
	}

	deduped := ds.Dedup()
	if ds.Len() == 0 {
		return fmt.Errorf("dataset is empty after ingestion")
	}
	trainSet, testSet := ds.Split(opts.testFrac, opts.seed)

	trainedOn := provenance
	if opts.trainedOn != "" {
		trainedOn = strings.Split(opts.trainedOn, ",")
	}
	sort.Strings(trainedOn)

	b, reports, err := train.TrainBundle(trainSet, train.BundleConfig{
		Config:    opts.trainConfig(),
		TrainedOn: trainedOn,
	})
	if err != nil {
		return err
	}

	var heldOut map[string]float64
	if testSet.Len() > 0 {
		heldOut, err = train.Evaluate(b, testSet)
		if err != nil {
			return err
		}
	}

	var data []byte
	if opts.format == "binary" {
		data, err = b.WriteFileBinary(opts.out)
	} else {
		data, err = b.WriteFile(opts.out)
	}
	if err != nil {
		return err
	}
	parsed, err := bundle.ParseAny(data)
	if err != nil {
		return fmt.Errorf("self-check: written bundle failed to parse: %w", err)
	}

	if !opts.quiet {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report{
			Examples:    ds.Len(),
			Deduped:     deduped,
			TrainSize:   trainSet.Len(),
			TestSize:    testSet.Len(),
			Seed:        opts.seed,
			Collectives: reports,
			HeldOut:     heldOut,
			Out:         opts.out,
			SizeBytes:   len(data),
			Hash:        parsed.Hash,
		}); err != nil {
			return err
		}
	}
	return nil
}
