// Package faults is the repository's deterministic fault-injection
// subsystem. Production code plants named injection points on its failure-
// prone paths (arena growth, visited-table growth, GDL parsing, the server's
// queue/cache/singleflight machinery); a chaos harness — or an operator via
// the LRCEX_FAULTS environment variable / -faults flag — arms them with
// per-point probabilities drawn from a seeded PRNG. The same seed and rates
// reproduce the same aggregate fault schedule, so chaos runs are replayable.
//
// The disabled fast path is a single atomic bool load per injection point:
// when no configuration is armed (the default), every helper returns
// immediately without touching the PRNG, the registry, or any counter, so
// instrumented hot loops stay byte-identical in behavior and effectively
// free. This is what lets the injection points live inside the search core
// permanently instead of behind build tags.
//
// Spec grammar (flag -faults / env LRCEX_FAULTS), semicolon- or
// comma-separated:
//
//	seed=42; all=0.05; core.unify.expand=0.1x3; server.queue=0.02
//
// "all=P" arms every registered point at probability P; "point=PxN" arms one
// point at probability P with at most N firings (N omitted = unlimited).
// Later clauses override earlier ones, so "all=0.05;gdl.parse=0" arms
// everything except the parser.
package faults

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Point names one injection site. Points are compile-time constants so a
// chaos schedule can target exactly one subsystem layer.
type Point string

// The registered injection points, one per guarded layer.
const (
	// CoreArenaGrow fires when a search arena allocates a fresh block
	// (simulated allocator failure → panic inside the unifying search).
	CoreArenaGrow Point = "core.arena.grow"
	// CoreVisitedGrow fires when the visited table must double its slot
	// array (simulated table corruption → panic inside dedup).
	CoreVisitedGrow Point = "core.visited.grow"
	// CoreUnifyExpand fires per configuration expansion in the unifying
	// search (simulated search-core bug → panic mid-expansion).
	CoreUnifyExpand Point = "core.unify.expand"
	// GDLParse fires at the top of ParseLimited (simulated parser fault →
	// error before any table construction).
	GDLParse Point = "gdl.parse"
	// ServerQueue fires on job admission (simulated queue failure → the
	// submission is shed exactly like a full queue).
	ServerQueue Point = "server.queue"
	// ServerCache fires on result-cache hits (simulated cache node loss →
	// the hit is discarded and the analysis re-runs).
	ServerCache Point = "server.cache"
	// ServerFlight fires inside the singleflight leader (simulated
	// downstream failure → the whole flight errors, mapped to 500).
	ServerFlight Point = "server.singleflight"
	// ServerWorker fires at the top of a worker's job execution (simulated
	// worker crash → panic on the worker goroutine, which the server must
	// contain).
	ServerWorker Point = "server.worker"
	// PersistWrite fires on durable-state writes (journal appends and
	// snapshot creation in internal/persist): an append writes a record with
	// a deliberately corrupted checksum and reports failure — the record is
	// on disk but will be skipped at the next boot — and a snapshot fails
	// outright, leaving the previous snapshot and journal intact.
	PersistWrite Point = "persist.write"
	// PersistRead fires per record during durable-state recovery (simulated
	// bit-rot → the record is treated as corrupt and skipped; boot proceeds
	// with a colder cache).
	PersistRead Point = "persist.read"
)

// Points lists every registered injection point (sorted, for specs and
// reports).
var Points = []Point{
	CoreArenaGrow, CoreVisitedGrow, CoreUnifyExpand,
	GDLParse,
	ServerQueue, ServerCache, ServerFlight, ServerWorker,
	PersistWrite, PersistRead,
}

// Rate arms one point: Prob is the per-evaluation firing probability in
// [0, 1]; Max caps total firings (0 = unlimited).
type Rate struct {
	Prob float64
	Max  int64
}

// Config is one armed fault schedule.
type Config struct {
	// Seed drives the deterministic PRNG. The n-th evaluation of a point
	// fires iff splitmix64(seed ⊕ hash(point) ⊕ n) falls under the rate
	// threshold, so a (seed, rates) pair replays the same schedule.
	Seed int64
	// Rates arms a subset of Points; unlisted points never fire.
	Rates map[Point]Rate
}

// pointState is the armed per-point state. calls/fired are atomics so the
// hot path never locks.
type pointState struct {
	threshold uint64 // fire iff rnd < threshold (threshold = Prob × 2⁶⁴)
	max       int64
	calls     atomic.Int64
	fired     atomic.Int64
}

// Counts is a point's evaluation/firing tally for Snapshot.
type Counts struct {
	Calls int64 `json:"calls"`
	Fired int64 `json:"fired"`
}

var (
	active atomic.Bool // the disabled fast path: one load, no pointer chase

	mu    sync.Mutex
	seed  uint64
	table atomic.Pointer[map[Point]*pointState]
)

// Enabled reports whether any fault schedule is armed.
func Enabled() bool { return active.Load() }

// Enable arms cfg, replacing any previous schedule and resetting counters.
func Enable(cfg Config) {
	mu.Lock()
	defer mu.Unlock()
	t := make(map[Point]*pointState, len(cfg.Rates))
	for p, r := range cfg.Rates {
		if r.Prob <= 0 {
			continue
		}
		prob := math.Min(r.Prob, 1)
		st := &pointState{max: r.Max}
		if prob >= 1 {
			st.threshold = math.MaxUint64
		} else {
			st.threshold = uint64(prob * float64(1<<63) * 2)
		}
		t[p] = st
	}
	seed = uint64(cfg.Seed)
	table.Store(&t)
	active.Store(len(t) > 0)
}

// Disable disarms every point. Pending Should evaluations race benignly: they
// observe either the old schedule or none.
func Disable() {
	mu.Lock()
	defer mu.Unlock()
	active.Store(false)
	table.Store(nil)
}

// Should evaluates the point once and reports whether a fault fires here.
// When the subsystem is disabled this is a single atomic load.
func Should(p Point) bool {
	if !active.Load() {
		return false
	}
	t := table.Load()
	if t == nil {
		return false
	}
	st := (*t)[p]
	if st == nil {
		return false
	}
	n := st.calls.Add(1)
	if st.threshold != math.MaxUint64 {
		if splitmix64(seed^pointHash(p)+uint64(n)*0x9e3779b97f4a7c15) >= st.threshold {
			return false
		}
	}
	if st.max > 0 {
		if f := st.fired.Add(1); f > st.max {
			st.fired.Add(-1)
			return false
		}
		return true
	}
	st.fired.Add(1)
	return true
}

// InjectedError is the typed error returned by ErrorAt when a fault fires;
// callers (the analysis service) map it onto an internal failure.
type InjectedError struct{ Point Point }

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected failure at %s", e.Point)
}

// ErrorAt returns an *InjectedError when a fault fires at p, else nil.
func ErrorAt(p Point) error {
	if Should(p) {
		return &InjectedError{Point: p}
	}
	return nil
}

// InjectedPanic is the value PanicAt panics with; recovery ladders type-check
// it (or any other panic value) and degrade.
type InjectedPanic struct{ Point Point }

func (e *InjectedPanic) String() string {
	return fmt.Sprintf("faults: injected panic at %s", e.Point)
}

// PanicAt panics with an *InjectedPanic when a fault fires at p.
func PanicAt(p Point) {
	if Should(p) {
		panic(&InjectedPanic{Point: p})
	}
}

// Snapshot returns the per-point evaluation and firing tallies of the armed
// schedule (empty when disabled).
func Snapshot() map[Point]Counts {
	t := table.Load()
	if t == nil {
		return nil
	}
	out := make(map[Point]Counts, len(*t))
	for p, st := range *t {
		out[p] = Counts{Calls: st.calls.Load(), Fired: st.fired.Load()}
	}
	return out
}

// TotalFired sums firings across every armed point.
func TotalFired() int64 {
	var n int64
	for _, c := range Snapshot() {
		n += c.Fired
	}
	return n
}

// ParseSpec parses the -faults / LRCEX_FAULTS grammar documented at the top
// of the package.
func ParseSpec(spec string) (Config, error) {
	cfg := Config{Rates: make(map[Point]Rate)}
	known := make(map[Point]bool, len(Points))
	for _, p := range Points {
		known[p] = true
	}
	fields := strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' })
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		name, val, ok := strings.Cut(f, "=")
		if !ok {
			return Config{}, fmt.Errorf("faults: clause %q is not name=value", f)
		}
		name = strings.TrimSpace(name)
		val = strings.TrimSpace(val)
		if name == "seed" {
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("faults: bad seed %q", val)
			}
			cfg.Seed = s
			continue
		}
		rate, err := parseRate(val)
		if err != nil {
			return Config{}, fmt.Errorf("faults: clause %q: %w", f, err)
		}
		if name == "all" {
			for _, p := range Points {
				cfg.Rates[p] = rate
			}
			continue
		}
		p := Point(name)
		if !known[p] {
			return Config{}, fmt.Errorf("faults: unknown point %q (known: %s)", name, pointList())
		}
		cfg.Rates[p] = rate
	}
	return cfg, nil
}

// parseRate parses "P" or "PxN" (probability, optional max firings).
func parseRate(val string) (Rate, error) {
	probStr, maxStr, capped := strings.Cut(val, "x")
	prob, err := strconv.ParseFloat(probStr, 64)
	if err != nil || prob < 0 || prob > 1 {
		return Rate{}, fmt.Errorf("bad probability %q (want 0..1)", probStr)
	}
	r := Rate{Prob: prob}
	if capped {
		max, err := strconv.ParseInt(maxStr, 10, 64)
		if err != nil || max < 0 {
			return Rate{}, fmt.Errorf("bad max firings %q", maxStr)
		}
		r.Max = max
	}
	return r, nil
}

// EnableSpec parses and arms a spec string; an empty spec falls back to the
// LRCEX_FAULTS environment variable (empty there too = stay disabled).
func EnableSpec(spec string) error {
	if spec == "" {
		spec = os.Getenv("LRCEX_FAULTS")
	}
	if spec == "" {
		return nil
	}
	cfg, err := ParseSpec(spec)
	if err != nil {
		return err
	}
	Enable(cfg)
	return nil
}

func pointList() string {
	names := make([]string, len(Points))
	for i, p := range Points {
		names[i] = string(p)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// pointHash is FNV-1a over the point name, mixing each point into its own
// PRNG stream.
func pointHash(p Point) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 is the canonical 64-bit finalizer (Steele et al.), giving
// high-quality decorrelated draws from sequential inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stack returns the current goroutine's stack trace; recovery ladders attach
// it to their typed panic errors so operators see where the fault landed.
func Stack() []byte {
	buf := make([]byte, 8<<10)
	n := runtime.Stack(buf, false)
	return buf[:n]
}
