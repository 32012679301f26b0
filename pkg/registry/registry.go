// Package registry owns the lifecycle of loaded model bundles. It keeps N
// generations (id, source, content hash, load time, status), serves the
// active one to the selector through an atomic pointer (lock-free read on
// the Select hot path), and supports promotion, rollback, and duplicate
// detection. Staged candidates can be shadow-evaluated against live
// traffic (see Shadow); replica.FileWatcher loads a changed bundle file
// and promotes it.
//
// Lifecycle: Load stages a validated generation; Promote atomically swaps
// it to active and retires the previous one; Rollback re-activates the
// generation that was active before the most recent swap. Invalid bundles
// are rejected at load time and never disturb the active generation.
package registry

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
)

// Status is a generation's position in the lifecycle.
type Status string

const (
	// StatusStaged: loaded and validated, not serving traffic.
	StatusStaged Status = "staged"
	// StatusActive: the one generation serving Select traffic.
	StatusActive Status = "active"
	// StatusRetired: previously active (or superseded), kept for rollback.
	StatusRetired Status = "retired"
)

// Generation is one loaded, validated model bundle under registry
// management. All fields are immutable after creation except status, which
// the registry mutates under its lock.
type Generation struct {
	id       uint64
	source   string
	hash     string
	bundle   *bundle.Bundle
	loadedAt time.Time

	// Guarded by Registry.mu.
	status     Status
	promotedAt time.Time
}

// ID returns the generation's monotonically increasing id (first load = 1).
func (g *Generation) ID() uint64 { return g.id }

// Hash returns the hex SHA-256 of the generation's raw bundle bytes.
func (g *Generation) Hash() string { return g.hash }

// Bundle returns the generation's loaded bundle.
func (g *Generation) Bundle() *bundle.Bundle { return g.bundle }

// Source returns where the generation was loaded from (file path or a
// caller-supplied label for in-memory loads).
func (g *Generation) Source() string { return g.source }

// Info is a JSON-ready snapshot of one generation.
type Info struct {
	ID          uint64     `json:"id"`
	Source      string     `json:"source"`
	Hash        string     `json:"hash"`
	Status      Status     `json:"status"`
	LoadedAt    time.Time  `json:"loaded_at"`
	PromotedAt  *time.Time `json:"promoted_at,omitempty"`
	Collectives []string   `json:"collectives"`
	SizeBytes   int64      `json:"size_bytes"`
	TrainedOn   int        `json:"trained_on_systems"`
}

// Config tunes a Registry.
type Config struct {
	// Keep bounds how many generations stay resident (default 4, min 2).
	// The active generation, the rollback target, and the shadow candidate
	// are never dropped, so the bound can be exceeded transiently.
	Keep int
	// Shadow, when non-nil, is fed each newly staged generation as the
	// shadow-evaluation candidate and cleared when that candidate is
	// promoted.
	Shadow *Shadow
}

// Registry is a versioned store of model generations. Safe for concurrent
// use; the hot-path read (Active) is one atomic load.
type Registry struct {
	o      *obs.Obs
	keep   int
	shadow *Shadow

	mu     sync.Mutex
	gens   []*Generation // ascending by id
	nextID uint64
	// prev is the rollback target: the generation that was active before
	// the most recent promote/rollback.
	prev *Generation
	subs []func(b *bundle.Bundle, gen uint64)

	active atomic.Pointer[Generation]

	loads      *obs.Counter // {status: ok|invalid|duplicate}
	promotions *obs.Counter
	rollbacks  *obs.Counter
	gActive    *obs.Gauge
	gCount     *obs.Gauge
}

// New builds an empty registry. Nothing is active until a generation is
// loaded and promoted.
func New(o *obs.Obs, cfg Config) *Registry {
	keep := cfg.Keep
	if keep <= 0 {
		keep = 4
	}
	if keep < 2 {
		keep = 2
	}
	reg := o.Registry
	r := &Registry{
		o:      o,
		keep:   keep,
		shadow: cfg.Shadow,
		loads: reg.Counter("pmlmpi_registry_loads_total",
			"Bundle load attempts into the registry, by outcome.", "status"),
		promotions: reg.Counter("pmlmpi_registry_promotions_total",
			"Generation promotions (staged/retired -> active)."),
		rollbacks: reg.Counter("pmlmpi_registry_rollbacks_total",
			"Rollbacks to the previously active generation."),
		gActive: reg.Gauge("pmlmpi_registry_active_generation",
			"Id of the generation currently serving traffic (0 = none)."),
		gCount: reg.Gauge("pmlmpi_registry_generations",
			"Generations currently resident in the registry."),
	}
	return r
}

// Active returns the bundle serving traffic and its generation id (nil, 0
// when nothing has been promoted). It implements selector.Source.
func (r *Registry) Active() (*bundle.Bundle, uint64) {
	g := r.active.Load()
	if g == nil {
		return nil, 0
	}
	return g.bundle, g.id
}

// ActiveGeneration returns the active generation, or nil.
func (r *Registry) ActiveGeneration() *Generation { return r.active.Load() }

// Subscribe registers fn to run after every swap of the active generation
// (promote or rollback), with the new active bundle and generation id. It
// implements selector.Source.
func (r *Registry) Subscribe(fn func(b *bundle.Bundle, gen uint64)) {
	r.mu.Lock()
	r.subs = append(r.subs, fn)
	r.mu.Unlock()
}

// Load reads, hashes, parses, and validates a bundle file, staging it as a
// new generation. Loading content whose hash matches a resident generation
// returns that generation instead of creating a duplicate. An invalid
// bundle is rejected without disturbing any resident generation.
func (r *Registry) Load(path string) (*Generation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		r.loads.Inc("invalid")
		return nil, fmt.Errorf("registry: read bundle %s: %w", path, err)
	}
	return r.LoadData(data, path)
}

// LoadData stages raw bundle bytes as a new generation; source labels where
// they came from. See Load for semantics. The staged bundle is released (see
// bundle.Bundle.Release): it serves and describes itself from its compiled
// forests and cannot be re-encoded.
func (r *Registry) LoadData(data []byte, source string) (*Generation, error) {
	_, span := r.o.Tracer.Start(context.Background(), "registry.load")
	span.SetAttr("source", source)
	defer span.End()

	b, err := bundle.ParseAny(data)
	if err != nil {
		r.loads.Inc("invalid")
		r.o.Logger.Warn("registry rejected bundle",
			"source", source, "error", err.Error())
		return nil, fmt.Errorf("registry: %s: %w", source, err)
	}
	b.Path = source
	// A generation serves from its compiled arenas alone: drop the pointer
	// trees, the larger copy, before anything can read them.
	b.Release()

	r.mu.Lock()
	for _, g := range r.gens {
		if g.hash == b.Hash {
			r.mu.Unlock()
			r.loads.Inc("duplicate")
			r.o.Logger.Info("registry load is a duplicate of a resident generation",
				"source", source, "generation", g.id, "hash", b.ShortHash())
			return g, nil
		}
	}
	r.nextID++
	g := &Generation{
		id:       r.nextID,
		source:   source,
		hash:     b.Hash,
		bundle:   b,
		loadedAt: time.Now(),
		status:   StatusStaged,
	}
	r.gens = append(r.gens, g)
	r.evictLocked(g)
	r.gCount.Set(float64(len(r.gens)))
	r.mu.Unlock()

	r.loads.Inc("ok")
	span.SetAttr("generation", g.id)
	r.o.Logger.Info("generation staged",
		"generation", g.id,
		"source", source,
		"hash", b.ShortHash(),
		"collectives", b.CollectiveNames(),
		"size_bytes", b.SizeBytes)
	if r.shadow != nil {
		r.shadow.SetCandidate(g)
	}
	return g, nil
}

// evictLocked drops the oldest droppable generations until at most keep
// remain. The active generation, the rollback target, the shadow
// candidate, and the generation just staged (fresh) are never dropped; if
// nothing is droppable the bound is exceeded rather than risking a
// generation still in use.
func (r *Registry) evictLocked(fresh *Generation) {
	var candidate *Generation
	if r.shadow != nil {
		candidate = r.shadow.Candidate()
	}
	for len(r.gens) > r.keep {
		dropped := false
		for i, g := range r.gens {
			if g == r.active.Load() || g == r.prev || g == candidate || g == fresh {
				continue
			}
			r.gens = append(r.gens[:i], r.gens[i+1:]...)
			r.o.Logger.Info("generation dropped by retention",
				"generation", g.id, "status", string(g.status))
			dropped = true
			break
		}
		if !dropped {
			return
		}
	}
}

// Promote makes generation id the active one, retiring the previous active
// generation (which becomes the rollback target). Promoting the already
// active generation is a no-op. Subscribers run synchronously before
// Promote returns, so by the time an admin call completes, the selector
// has flushed its cache and re-pointed its gauges.
func (r *Registry) Promote(id uint64) (*Generation, error) {
	return r.swap(id, false)
}

// Rollback re-activates the generation that was active before the most
// recent promote or rollback. Two consecutive rollbacks toggle between the
// last two active generations.
func (r *Registry) Rollback() (*Generation, error) {
	r.mu.Lock()
	target := r.prev
	r.mu.Unlock()
	if target == nil {
		return nil, fmt.Errorf("registry: no previously active generation to roll back to")
	}
	return r.swap(target.id, true)
}

func (r *Registry) swap(id uint64, rollback bool) (*Generation, error) {
	_, span := r.o.Tracer.Start(context.Background(), "registry.swap")
	span.SetAttr("generation", id)
	span.SetAttr("rollback", rollback)
	defer span.End()

	r.mu.Lock()
	var g *Generation
	for _, cand := range r.gens {
		if cand.id == id {
			g = cand
			break
		}
	}
	if g == nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: no generation %d (dropped or never loaded)", id)
	}
	old := r.active.Load()
	if old == g {
		r.mu.Unlock()
		return g, nil
	}
	if old != nil {
		old.status = StatusRetired
	}
	g.status = StatusActive
	g.promotedAt = time.Now()
	r.prev = old
	r.active.Store(g)
	r.gActive.Set(float64(g.id))
	// The swap may have unpinned the old rollback target; re-check the
	// retention bound.
	r.evictLocked(nil)
	r.gCount.Set(float64(len(r.gens)))
	subs := append([]func(*bundle.Bundle, uint64){}, r.subs...)
	r.mu.Unlock()

	if rollback {
		r.rollbacks.Inc()
	} else {
		r.promotions.Inc()
	}
	oldID := uint64(0)
	if old != nil {
		oldID = old.id
	}
	r.o.Logger.Info("generation activated",
		"generation", g.id,
		"previous", oldID,
		"rollback", rollback,
		"hash", g.bundle.ShortHash())
	for _, fn := range subs {
		fn(g.bundle, g.id)
	}
	if r.shadow != nil && r.shadow.Candidate() == g {
		r.shadow.ClearCandidate()
	}
	return g, nil
}

// Generation returns the resident generation with the given id.
func (r *Registry) Generation(id uint64) (*Generation, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.gens {
		if g.id == id {
			return g, true
		}
	}
	return nil, false
}

// LatestStaged returns the most recently loaded generation still in the
// staged state, or nil — the default target of a bare promote request.
func (r *Registry) LatestStaged() *Generation {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.gens) - 1; i >= 0; i-- {
		if r.gens[i].status == StatusStaged {
			return r.gens[i]
		}
	}
	return nil
}

// Snapshot returns JSON-ready info for every resident generation, oldest
// first.
func (r *Registry) Snapshot() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, len(r.gens))
	for i, g := range r.gens {
		out[i] = infoLocked(g)
	}
	return out
}

func infoLocked(g *Generation) Info {
	inf := Info{
		ID:          g.id,
		Source:      g.source,
		Hash:        g.hash,
		Status:      g.status,
		LoadedAt:    g.loadedAt,
		Collectives: g.bundle.CollectiveNames(),
		SizeBytes:   g.bundle.SizeBytes,
		TrainedOn:   len(g.bundle.TrainedOn),
	}
	if !g.promotedAt.IsZero() {
		t := g.promotedAt
		inf.PromotedAt = &t
	}
	return inf
}

// InfoFor snapshots one generation.
func (r *Registry) InfoFor(g *Generation) Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	return infoLocked(g)
}
