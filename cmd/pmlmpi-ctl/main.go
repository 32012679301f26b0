// Command pmlmpi-ctl runs the fleet control plane: a content-addressed
// bundle store plus the staged-rollout controller. Replicas poll
// /v1/manifest for the generation they should serve, pull bytes from
// /v1/bundles/{hash}, and report /v1/heartbeat; operators upload bundles
// with POST /v1/bundles (?stable=true seeds the fleet, ?rollout=true
// starts a canary) and drive or watch rollouts via /v1/rollout/* and
// /debug/rollout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/buildinfo"
	"github.com/pml-mpi/pmlmpi/pkg/controlplane"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
)

func main() {
	var (
		addr     = flag.String("addr", ":8090", "listen address for the control-plane HTTP surface")
		storeDir = flag.String("store-dir", "", "directory persisting the content-addressed bundle store (empty = in-memory only)")
		bundle   = flag.String("bundle", "", "bundle file to ingest and seed as the fleet-wide stable hash on boot")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn, error")

		pollInterval = flag.Duration("poll-interval", 2*time.Second, "advisory replica poll interval surfaced in every manifest")

		canaryPercent    = flag.Float64("canary-percent", 25, "share in [0,100] of replicas (rounded up, at least one) assigned to the canary ring")
		minAgreement     = flag.Float64("min-agreement", controlplane.DefaultShadowPolicy().MinAgreement, "shadow-agreement rate in [0,1] below which replicas reject a soaking candidate and the rollout rolls back")
		minShadowSamples = flag.Uint64("min-shadow-samples", controlplane.DefaultShadowPolicy().MinSamples, "shadow samples evidence needs before its agreement is judged")
		maxP99Ratio      = flag.Float64("max-p99-ratio", 0, "roll back when a canary's select p99 exceeds this multiple of its pre-rollout baseline (0 disables)")
		replicaTTL       = flag.Duration("replica-ttl", time.Minute, "heartbeat age after which a replica stops counting toward rollout gates")

		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "deadline for draining in-flight requests on SIGINT/SIGTERM")
	)
	flag.Parse()

	o := obs.New(os.Stderr, obs.ParseLevel(*logLevel))
	if err := run(o, *addr, *storeDir, *bundle, controlplane.RolloutConfig{
		CanaryPercent: *canaryPercent,
		Shadow:        controlplane.ShadowPolicy{MinAgreement: *minAgreement, MinSamples: *minShadowSamples},
		MaxP99Ratio:   *maxP99Ratio,
		ReplicaTTL:    *replicaTTL,
	}, *pollInterval, *shutdownTimeout); err != nil {
		o.Logger.Error("fatal", "error", err.Error())
		os.Exit(1)
	}
}

func run(o *obs.Obs, addr, storeDir, bundlePath string, roCfg controlplane.RolloutConfig, poll, shutdownTimeout time.Duration) error {
	if err := roCfg.Validate(); err != nil {
		return err // a bad flag exits before listening
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	store, err := controlplane.NewStore(storeDir)
	if err != nil {
		return err
	}
	rollout := controlplane.NewRollout(store, roCfg)
	if bundlePath != "" {
		data, err := os.ReadFile(bundlePath)
		if err != nil {
			return fmt.Errorf("read seed bundle: %w", err)
		}
		hash, existed, err := store.Put(data)
		if err != nil {
			return fmt.Errorf("ingest seed bundle: %w", err)
		}
		if err := rollout.SetStable(hash); err != nil {
			return fmt.Errorf("seed stable hash: %w", err)
		}
		o.Logger.Info("seeded stable bundle",
			"path", bundlePath, "hash", hash, "existed", existed, "bytes", len(data))
	}

	srv := &http.Server{
		Addr: addr,
		Handler: controlplane.NewServer(store, rollout, o, controlplane.ServerConfig{
			PollInterval: poll,
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		o.Logger.Info("control plane serving",
			"addr", addr,
			"version", buildinfo.Resolve(),
			"store_dir", storeDir,
			"bundles", store.Len(),
			"canary_percent", roCfg.CanaryPercent)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	o.Logger.Info("shutting down", "timeout", shutdownTimeout.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	err = srv.Shutdown(shutdownCtx)
	o.Logger.Info("shutdown complete")
	return err
}
