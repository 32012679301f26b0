// Command pmlmpi-server runs the PML-MPI algorithm-selection service: it
// loads the pre-trained model bundle into a versioned registry and serves
// selections plus the full observability surface (/metrics, /healthz,
// /debug/decisions, /debug/traces, /debug/analytics, /debug/shadow,
// optional /debug/pprof, /v1/select, /v1/registry). Bundles can be
// hot-swapped at runtime via the registry endpoints or the -bundle-watch
// poller, with optional shadow evaluation of staged candidates. With
// -feedback-dir set, /v1/feedback ingests observed latencies and the
// retrain controller (/debug/retrain) closes the self-tuning loop.
//
// The flags are serve.Config's fields; pkg/serve builds the stack.
package main

import (
	"context"
	"errors"
	"flag"
	"net/http"
	"os"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/buildinfo"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/serve"
)

func main() {
	var cfg serve.Config
	cfg.Flags(flag.CommandLine)
	flag.Parse()

	o := obs.New(os.Stderr, obs.ParseLevel(cfg.LogLevel))
	if err := run(o, cfg); err != nil {
		o.Logger.Error("fatal", "error", err.Error())
		os.Exit(1)
	}
}

func run(o *obs.Obs, cfg serve.Config) error {
	st, err := serve.New(cfg, o) // validates cfg first: a bad flag exits before listening
	if err != nil {
		return err
	}
	var genID uint64
	var collectives []string
	if g := st.Registry.ActiveGeneration(); g != nil {
		genID = g.ID()
		collectives = g.Bundle().CollectiveNames()
	}
	o.Logger.Info("serving",
		"addr", cfg.Addr,
		"role", st.Role,
		"version", buildinfo.Resolve(),
		"generation", genID,
		"collectives", collectives)
	srv := &http.Server{Addr: cfg.Addr, Handler: st.Handler, ReadHeaderTimeout: 5 * time.Second}
	// The stack closes after the HTTP drain, so no in-flight request
	// outlives what it selects with.
	return errors.Join(obs.Serve(context.Background(), srv, cfg.ShutdownTimeout, o.Logger), st.Close())
}
