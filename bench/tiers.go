package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/admin"
	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/cache"
	"github.com/pml-mpi/pmlmpi/pkg/feedback"
	"github.com/pml-mpi/pmlmpi/pkg/gateway"
	"github.com/pml-mpi/pmlmpi/pkg/modelhealth"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/selector"
	"github.com/pml-mpi/pmlmpi/pkg/slo"
)

// tier is one process of the fleet under test, seen from outside: a base URL
// to call and scrape and, for a subprocess, a pid to read /proc from.
type tier struct {
	id      string
	url     string
	replica bool // serves selections itself (scrape its cache counters)
	cmd     *exec.Cmd
	exited  chan struct{} // closed once cmd has been waited for
	log     *os.File
	close   func() // in-process tiers
}

// fleet is everything one workload talks to.
type fleet struct {
	entry string // where the workload sends its calls
	tiers []*tier
}

func (f *fleet) replicas() []*tier {
	var out []*tier
	for _, t := range f.tiers {
		if t.replica {
			out = append(out, t)
		}
	}
	return out
}

func (f *fleet) gateway() *tier {
	for _, t := range f.tiers {
		if !t.replica {
			return t
		}
	}
	return nil
}

func (f *fleet) pids() []int {
	var out []int
	for _, t := range f.tiers {
		if t.cmd != nil {
			out = append(out, t.cmd.Process.Pid)
		}
	}
	return out
}

// stop ends every tier and waits for it: SIGTERM (the binaries drain and
// exit), then SIGKILL for one that has not gone after five seconds.
func (f *fleet) stop() {
	for i := len(f.tiers) - 1; i >= 0; i-- {
		t := f.tiers[i]
		if t.close != nil {
			t.close()
		}
		if t.cmd == nil {
			continue
		}
		t.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-t.exited:
		case <-time.After(5 * time.Second):
			t.cmd.Process.Kill()
			<-t.exited
		}
		t.log.Close()
	}
	f.tiers = nil
}

// binaries are the programs under test, built from this checkout.
var binaries = []string{"pmlmpi-server", "pmlmpi-gateway", "pmlmpi-train"}

func buildBinaries(binDir string) error {
	args := []string{"build", "-o", binDir + string(filepath.Separator)}
	for _, b := range binaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build ./cmd/...: %w", err)
	}
	return nil
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts one binary with its stderr in a file under dir and waits for
// its /healthz to answer 200.
func spawn(dir, bin, id string, replica bool, args ...string) (*tier, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, id+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	t := &tier{id: id, url: "http://" + addr, replica: replica, cmd: cmd, exited: make(chan struct{}), log: logf}
	go func() {
		cmd.Wait()
		close(t.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-t.exited:
			logf.Close()
			return nil, fmt.Errorf("%s exited before serving; see %s", id, logf.Name())
		default:
		}
		if code, _, err := get(t.url + "/healthz"); err == nil && code == http.StatusOK {
			return t, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	cmd.Process.Kill()
	<-t.exited
	logf.Close()
	return nil, fmt.Errorf("%s did not become healthy in 60s; see %s", id, logf.Name())
}

// get fetches a URL from a tier's observability surface.
func get(url string) (code int, body []byte, err error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// startFleet launches the tiers a workload needs as subprocesses, each with
// default flags beyond its address, bundle and (for feedback) store directory.
func startFleet(w workload, binDir, dir, bundlePath string) (*fleet, error) {
	f := &fleet{}
	server := filepath.Join(binDir, "pmlmpi-server")
	if !w.gateway {
		args := []string{"-bundle", bundlePath}
		if w.feedback {
			fbDir := filepath.Join(dir, "feedback")
			if err := os.RemoveAll(fbDir); err != nil {
				return nil, err
			}
			args = append(args, "-feedback-dir", fbDir)
		}
		t, err := spawn(dir, server, "server", true, args...)
		if err != nil {
			return nil, err
		}
		f.tiers, f.entry = []*tier{t}, t.url
		return f, nil
	}
	var specs []string
	for _, id := range []string{"r0", "r1"} {
		t, err := spawn(dir, server, id, true, "-bundle", bundlePath)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.tiers = append(f.tiers, t)
		specs = append(specs, id+"="+t.url)
	}
	gw, err := spawn(dir, filepath.Join(binDir, "pmlmpi-gateway"), "gateway", false, "-replicas", strings.Join(specs, ","))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.tiers, f.entry = append(f.tiers, gw), gw.url
	return f, nil
}

// stack is one in-process serving stack wired the way cmd/pmlmpi-server wires
// it (decision cache, SLO tracker, model-health observatory, optional feedback
// store) around a static bundle. It leaves out the registry and the shadow
// evaluator: idle, each costs Select one atomic load.
type stack struct {
	o     *obs.Obs
	cache *cache.Cache
	sel   *selector.Selector
	admin *admin.Server
	store *feedback.Store
}

// stackConfig is what varies between stacks: the log sink, a cache bound
// (0 = the server's default), whether Select feeds the SLO and model-health
// telemetry, and a feedback directory.
type stackConfig struct {
	log          io.Writer
	cacheEntries int
	bare         bool
	feedbackDir  string
}

func newStack(b *bundle.Bundle, cfg stackConfig) (*stack, error) {
	s := &stack{o: obs.New(cfg.log, obs.LevelInfo)}
	s.cache = cache.New(cache.Config{MaxEntries: cfg.cacheEntries}, s.o.Registry)
	sc := selector.Config{Cache: s.cache}
	ac := admin.Config{}
	if !cfg.bare {
		tracker := slo.New(s.o.Registry, slo.Objectives{})
		health := modelhealth.New(s.o.Registry, modelhealth.Config{})
		sc.SLO, sc.Health = tracker, health
		ac.SLO, ac.Health = tracker, health
	}
	if cfg.feedbackDir != "" {
		store, err := feedback.NewStore(s.o.Registry, feedback.Config{Dir: cfg.feedbackDir})
		if err != nil {
			return nil, err
		}
		s.store, ac.Feedback = store, store
	}
	s.sel = selector.New(b, s.o, sc)
	s.admin = admin.New(s.sel, s.o, ac)
	return s, nil
}

func (s *stack) close() {
	if s.store != nil {
		s.store.Close()
	}
}

// serve puts a handler on a loopback listener, as one in-process tier.
func serve(id string, replica bool, h http.Handler, onClose func()) *tier {
	srv := httptest.NewServer(h)
	return &tier{id: id, url: srv.URL, replica: replica, close: func() {
		srv.Close()
		if onClose != nil {
			onClose()
		}
	}}
}

// startInprocFleet is startFleet without subprocesses, for the smoke pass.
func startInprocFleet(w workload, b *bundle.Bundle, dir string, cacheEntries int) (*fleet, error) {
	f := &fleet{}
	cfg := stackConfig{log: io.Discard, cacheEntries: cacheEntries}
	if !w.gateway {
		if w.feedback {
			cfg.feedbackDir = filepath.Join(dir, "feedback")
		}
		s, err := newStack(b, cfg)
		if err != nil {
			return nil, err
		}
		t := serve("server", true, s.admin, s.close)
		f.tiers, f.entry = []*tier{t}, t.url
		return f, nil
	}
	gw, replicas, err := newGateway(b, cfg)
	if err != nil {
		return nil, err
	}
	t := serve("gateway", false, gw, nil)
	f.tiers, f.entry = append(replicas, t), t.url
	return f, nil
}

// newGateway builds a gateway over two fresh in-process replicas.
func newGateway(b *bundle.Bundle, cfg stackConfig) (*gateway.Gateway, []*tier, error) {
	var replicas []*tier
	var specs []gateway.ReplicaSpec
	for _, id := range []string{"r0", "r1"} {
		s, err := newStack(b, cfg)
		if err != nil {
			return nil, nil, err
		}
		t := serve(id, true, s.admin, s.close)
		replicas = append(replicas, t)
		specs = append(specs, gateway.ReplicaSpec{ID: id, URL: t.url})
	}
	gw, err := gateway.New(obs.New(cfg.log, obs.LevelInfo), gateway.Config{Replicas: specs})
	return gw, replicas, err
}

// procCPU is the user+system CPU time the processes have used, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 10 ms).
func procCPU(pids []int) (time.Duration, error) {
	var ticks int64
	for _, pid := range pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		// The command name (field 2) may hold spaces; fields resume after ')'.
		rest := data[bytes.LastIndexByte(data, ')')+1:]
		fields := strings.Fields(string(rest))
		if len(fields) < 13 {
			return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
		}
		for _, f := range fields[11:13] {
			n, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
			}
			ticks += n
		}
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// cpuSteal reads the machine-wide stolen and total CPU time from /proc/stat:
// time the hypervisor gave to someone else while this machine wanted to run.
func cpuSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			continue // the leading "cpu"
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// procPeakRSS sums the processes' peak resident sets (VmHWM), in MiB.
func procPeakRSS(pids []int) (float64, error) {
	var kib float64
	for _, pid := range pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err != nil {
					return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
				}
				kib += v
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
		}
	}
	return kib / 1024, nil
}

// fsType names the filesystem a path lives on, from /proc/mounts (longest
// mount-point prefix wins).
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, kind = len(mp), f[2]
		}
	}
	return kind
}

// counters is a /metrics scrape reduced to what the regime guards read,
// summed over label sets.
type counters map[string]float64

// scrape reads the named counter families from a tier's /metrics.
func scrape(t *tier, families ...string) (counters, error) {
	code, body, err := get(t.url + "/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: HTTP %d", t.url, code)
	}
	out := counters{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, fam := range families {
			if name == fam {
				v, err := strconv.ParseFloat(line[sp+1:], 64)
				if err != nil {
					return nil, fmt.Errorf("%s/metrics: %q: %w", t.url, line, err)
				}
				out[fam] += v
			}
		}
	}
	return out, nil
}

// replicaRequests reads per-replica request counts from the gateway's
// /debug/replicas.
func replicaRequests(gw *tier) (map[string]float64, error) {
	code, body, err := get(gw.url + "/debug/replicas")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s/debug/replicas: HTTP %d", gw.url, code)
	}
	var resp struct {
		Replicas []gateway.ReplicaInfo `json:"replicas"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, r := range resp.Replicas {
		out[r.ID] = float64(r.Requests)
	}
	return out, nil
}
