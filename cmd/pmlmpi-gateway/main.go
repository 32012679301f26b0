// Command pmlmpi-gateway runs the fleet front door: it partitions
// /v1/select traffic across a replica set by the quantized feature key
// (the same identity the replicas' decision caches use), health-checks
// the backends, retries failed attempts on the next-best replica, and
// exposes per-replica routing state on /debug/replicas.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/buildinfo"
	"github.com/pml-mpi/pmlmpi/pkg/gateway"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
)

func main() {
	var (
		addr     = flag.String("addr", ":8081", "listen address for the gateway HTTP surface")
		replicas = flag.String("replicas", "", "comma-separated replica set as id=url pairs, e.g. \"r0=http://10.0.0.7:8080,r1=http://10.0.0.8:8080\"")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn, error")

		quantum        = flag.Float64("quantum", selector.DefaultCacheQuantum, "feature-quantization step for partition keys (must match the replicas' cache quantum)")
		maxAttempts    = flag.Int("max-attempts", 3, "replicas one request may try before the gateway answers 502")
		healthInterval = flag.Duration("health-interval", 2*time.Second, "active /healthz probe period for the replica set")
		controlPlane   = flag.String("controlplane", "", "control-plane base URL; /healthz then embeds the fleet's desired manifest")
		timeout        = flag.Duration("proxy-timeout", 10*time.Second, "per-attempt proxy timeout")

		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "deadline for draining in-flight requests on SIGINT/SIGTERM")
	)
	flag.Parse()

	o := obs.New(os.Stderr, obs.ParseLevel(*logLevel))
	specs, err := parseReplicas(*replicas)
	if err != nil {
		o.Logger.Error("fatal", "error", err.Error())
		os.Exit(1)
	}
	if err := run(o, *addr, gateway.Config{
		Replicas:       specs,
		Quantum:        *quantum,
		MaxAttempts:    *maxAttempts,
		HealthInterval: *healthInterval,
		ControlPlane:   *controlPlane,
		Client:         gateway.NewProxyClient(*timeout),
	}, *shutdownTimeout); err != nil {
		o.Logger.Error("fatal", "error", err.Error())
		os.Exit(1)
	}
}

// parseReplicas parses the -replicas flag: comma-separated id=url pairs.
func parseReplicas(s string) ([]gateway.ReplicaSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-replicas is required, e.g. -replicas \"r0=http://host0:8080,r1=http://host1:8080\"")
	}
	var specs []gateway.ReplicaSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad replica %q: want id=url", part)
		}
		specs = append(specs, gateway.ReplicaSpec{ID: id, URL: url})
	}
	return specs, nil
}

func run(o *obs.Obs, addr string, cfg gateway.Config, shutdownTimeout time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	gw, err := gateway.New(o, cfg)
	if err != nil {
		return err
	}
	go gw.Run(ctx)

	srv := &http.Server{
		Addr:              addr,
		Handler:           gw,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		ids := make([]string, len(cfg.Replicas))
		for i, r := range cfg.Replicas {
			ids[i] = r.ID
		}
		o.Logger.Info("gateway serving",
			"addr", addr,
			"version", buildinfo.Resolve(),
			"replicas", ids,
			"max_attempts", cfg.MaxAttempts)
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
