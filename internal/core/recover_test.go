package core_test

import (
	"math/rand"
	"testing"

	"lrcex/internal/core"
	"lrcex/internal/faults"
	"lrcex/internal/lr"
)

// deterministicOpts are the fault-test budgets: no wall clock anywhere, so
// per-conflict outcomes are a pure function of the grammar and the armed
// fault schedule.
func deterministicOpts(parallelism int) core.Options {
	return core.Options{
		PerConflictTimeout: core.NoTimeout,
		CumulativeTimeout:  core.NoTimeout,
		MaxConfigs:         200000,
		Parallelism:        parallelism,
	}
}

// TestRecoveredPanicDegradesSingleConflict is the blast-radius regression
// test for the degradation ladder's first rung: a panic injected into one
// conflict's unifying expansion must degrade exactly that conflict to
// "nonunifying (recovered)" — carrying the typed *ErrSearchPanic — while
// every sibling conflict's report stays byte-identical to a clean run, even
// at Parallelism 8 where all searches share the worker pool. Run under
// -race this also proves the recovery path publishes no cross-goroutine
// state.
func TestRecoveredPanicDegradesSingleConflict(t *testing.T) {
	_, tbl := build(t, "figure1")
	if len(tbl.Conflicts) < 2 {
		t.Fatalf("need at least 2 conflicts for a blast-radius test, figure1 has %d", len(tbl.Conflicts))
	}
	opts := deterministicOpts(8)

	clean, err := core.NewFinder(tbl, opts).FindAll()
	if err != nil {
		t.Fatal(err)
	}
	baseline := make([]string, len(clean))
	for i, ex := range clean {
		baseline[i] = ex.Report(tbl.A)
	}

	// Arm exactly one panic: the first unify expansion anywhere in the pool
	// dies. Which conflict absorbs it depends on goroutine scheduling; the
	// invariant is that exactly one does and the rest are untouched.
	faults.Enable(faults.Config{Seed: 1, Rates: map[faults.Point]faults.Rate{
		faults.CoreUnifyExpand: {Prob: 1, Max: 1},
	}})
	defer faults.Disable()

	f := core.NewFinder(tbl, opts)
	exs, err := f.FindAll()
	if err != nil {
		t.Fatalf("FindAll must degrade, not fail, under a contained panic: %v", err)
	}
	if len(exs) != len(clean) {
		t.Fatalf("%d examples under fault, %d clean", len(exs), len(clean))
	}
	recovered := 0
	for i, ex := range exs {
		if ex.Kind == core.NonunifyingRecovered {
			recovered++
			if ex.Recovered == nil {
				t.Errorf("state %d: kind recovered but Recovered == nil", ex.Conflict.State)
				continue
			}
			if ex.Recovered.State != ex.Conflict.State || ex.Recovered.Sym != ex.Conflict.Sym {
				t.Errorf("Recovered names conflict (%d, %d), example is (%d, %d)",
					ex.Recovered.State, ex.Recovered.Sym, ex.Conflict.State, ex.Conflict.Sym)
			}
			if _, ok := ex.Recovered.Value.(*faults.InjectedPanic); !ok {
				t.Errorf("Recovered.Value = %T, want *faults.InjectedPanic", ex.Recovered.Value)
			}
			if len(ex.Recovered.Stack) == 0 {
				t.Errorf("state %d: recovered panic carries no stack", ex.Conflict.State)
			}
			if len(ex.Prefix)+len(ex.After1) == 0 {
				t.Errorf("state %d: recovered conflict has an empty nonunifying counterexample", ex.Conflict.State)
			}
			continue
		}
		if got := ex.Report(tbl.A); got != baseline[i] {
			t.Errorf("sibling %d (state %d) disturbed by a panic it did not suffer:\n--- clean ---\n%s\n--- faulted ---\n%s",
				i, ex.Conflict.State, baseline[i], got)
		}
	}
	if recovered != 1 {
		t.Errorf("recovered %d conflicts, want exactly 1 (the Max:1 schedule fires once)", recovered)
	}
	if deg := f.Degraded(); deg.Recovered != 1 || deg.MemoryAborts != 0 {
		t.Errorf("Degraded() = %+v, want {Recovered:1 MemoryAborts:0}", deg)
	}
}

// TestVisitedGrowPanicDegradesSingleConflict arms the visited table's
// doubling path once. xi's larger searches outgrow the initial table, so
// exactly one conflict must degrade to "nonunifying (recovered)" and every
// other conflict must report exactly as in an unarmed run: the worker's
// scratch, half-grown table included, is discarded with the failed search.
func TestVisitedGrowPanicDegradesSingleConflict(t *testing.T) {
	_, tbl := build(t, "xi")
	opts := deterministicOpts(2)

	clean, err := core.NewFinder(tbl, opts).FindAll()
	if err != nil {
		t.Fatal(err)
	}

	faults.Enable(faults.Config{Seed: 1, Rates: map[faults.Point]faults.Rate{
		faults.CoreVisitedGrow: {Prob: 1, Max: 1},
	}})
	defer faults.Disable()

	f := core.NewFinder(tbl, opts)
	exs, err := f.FindAll()
	if err != nil {
		t.Fatalf("FindAll must degrade, not fail, under a contained panic: %v", err)
	}
	if fired := faults.Snapshot()[faults.CoreVisitedGrow].Fired; fired != 1 {
		t.Fatalf("core.visited.grow fired %d times, want 1 (no search outgrew the initial table?)", fired)
	}
	if len(exs) != len(clean) {
		t.Fatalf("%d examples under fault, %d clean", len(exs), len(clean))
	}
	recovered := 0
	for i, ex := range exs {
		if ex.Kind == core.NonunifyingRecovered {
			recovered++
			if _, ok := ex.Recovered.Value.(*faults.InjectedPanic); !ok {
				t.Errorf("Recovered.Value = %T, want *faults.InjectedPanic", ex.Recovered.Value)
			}
			continue
		}
		if got, want := ex.Report(tbl.A), clean[i].Report(tbl.A); got != want {
			t.Errorf("conflict %d (state %d) disturbed by a panic it did not suffer:\n--- clean ---\n%s\n--- faulted ---\n%s",
				i, ex.Conflict.State, want, got)
		}
	}
	if recovered != 1 {
		t.Errorf("recovered %d conflicts, want exactly 1 (the Max:1 schedule fires once)", recovered)
	}
}

// TestArenaBudgetExactBoundary pins the MaxArenaBytes off-by-one contract,
// mirroring TestMaxConfigsExactBoundary: the budget is checked between
// expansions with a strict >, so a search whose persistent footprint is
// exactly B bytes still completes under MaxArenaBytes = B and degrades to
// nonunifying (memory) under B-1. The probe conflict is figure1's "+"
// shift-reduce (Figure 11).
func TestArenaBudgetExactBoundary(t *testing.T) {
	g, tbl := build(t, "figure1")
	var conflict lr.Conflict
	found := false
	for _, c := range tbl.Conflicts {
		if g.Name(c.Sym) == "+" {
			conflict, found = c, true
			break
		}
	}
	if !found {
		t.Fatal("no conflict under + in figure1")
	}

	run := func(limit int64) (*core.Finder, *core.Example) {
		f := core.NewFinder(tbl, core.Options{
			PerConflictTimeout: core.NoTimeout,
			CumulativeTimeout:  core.NoTimeout,
			MaxArenaBytes:      limit,
		})
		ex, err := f.Find(conflict)
		if err != nil {
			t.Fatalf("Find(MaxArenaBytes=%d): %v", limit, err)
		}
		return f, ex
	}

	_, free := run(0) // unlimited
	if free.Kind != core.Unifying {
		t.Fatalf("unbudgeted search: kind = %v, want unifying", free.Kind)
	}
	b := free.Stats.AllocBytes
	if b < 2 {
		t.Fatalf("unifying search footprint is %d bytes; boundary test needs >= 2", b)
	}

	_, exact := run(b)
	if exact.Kind != core.Unifying {
		t.Errorf("MaxArenaBytes=%d (exact footprint): kind = %v, want unifying", b, exact.Kind)
	}
	if exact.Stats.AllocBytes != b {
		t.Errorf("MaxArenaBytes=%d: footprint %d bytes, want %d (determinism)", b, exact.Stats.AllocBytes, b)
	}

	fu, under := run(b - 1)
	if under.Kind != core.NonunifyingMemory {
		t.Errorf("MaxArenaBytes=%d (one byte short): kind = %v, want nonunifying (memory)", b-1, under.Kind)
	}
	if len(under.Prefix)+len(under.After1) == 0 {
		t.Error("memory-degraded conflict has an empty nonunifying counterexample")
	}
	if deg := fu.Degraded(); deg.MemoryAborts != 1 || deg.Recovered != 0 {
		t.Errorf("Degraded() = %+v, want {Recovered:0 MemoryAborts:1}", deg)
	}

	// A budget far below any useful search must still yield a usable
	// degraded example, never a crash or an empty report.
	_, tiny := run(64)
	if tiny.Kind != core.NonunifyingMemory {
		t.Errorf("MaxArenaBytes=64: kind = %v, want nonunifying (memory)", tiny.Kind)
	}
	if len(tiny.Prefix)+len(tiny.After1) == 0 {
		t.Error("tiny-budget conflict has an empty nonunifying counterexample")
	}
}

// FuzzRecoverLadder fuzzes the degradation ladder over random small grammars
// and random fault schedules: with panics injected into the unifying
// expansion at 10%, FindAll must still return one example per conflict with
// no error, every recovered example must carry its typed panic, the
// Degraded tally must match the recovered kinds, and conflicts that
// suffered no fault must report byte-identically to a clean run.
//
// Run a longer campaign with:
//
//	go test -run='^$' -fuzz=FuzzRecoverLadder -fuzztime=10s ./internal/core/
func FuzzRecoverLadder(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, seed*7+1)
	}
	f.Fuzz(func(t *testing.T, seed, faultSeed int64) {
		r := rand.New(rand.NewSource(seed))
		g := randomGrammar(r)
		if g == nil {
			t.Skip("random grammar failed validation")
		}
		tbl := lr.BuildTable(lr.Build(g))
		if len(tbl.Conflicts) == 0 {
			t.Skip("conflict-free grammar")
		}
		opts := core.Options{
			PerConflictTimeout: core.NoTimeout,
			CumulativeTimeout:  core.NoTimeout,
			MaxConfigs:         20000,
			Parallelism:        2,
		}
		faults.Disable()
		clean, err := core.NewFinder(tbl, opts).FindAll()
		if err != nil {
			t.Fatalf("clean FindAll on\n%s: %v", g, err)
		}

		faults.Enable(faults.Config{Seed: faultSeed, Rates: map[faults.Point]faults.Rate{
			faults.CoreUnifyExpand: {Prob: 0.1},
		}})
		defer faults.Disable()
		fd := core.NewFinder(tbl, opts)
		exs, err := fd.FindAll()
		if err != nil {
			t.Fatalf("faulted FindAll must degrade, not fail, on\n%s: %v", g, err)
		}
		if len(exs) != len(clean) {
			t.Fatalf("%d examples faulted vs %d clean on\n%s", len(exs), len(clean), g)
		}
		recovered := 0
		for i, ex := range exs {
			if ex.Kind == core.NonunifyingRecovered {
				recovered++
				if ex.Recovered == nil {
					t.Fatalf("state %d: recovered kind without Recovered error", ex.Conflict.State)
				}
				continue
			}
			if got, want := ex.Report(tbl.A), clean[i].Report(tbl.A); got != want {
				t.Errorf("conflict %d disturbed by faults it did not suffer on\n%s\n--- clean ---\n%s\n--- faulted ---\n%s",
					i, g, want, got)
			}
		}
		if got := fd.Degraded().Recovered; got != int64(recovered) {
			t.Errorf("Degraded().Recovered = %d, %d recovered kinds", got, recovered)
		}
	})
}
