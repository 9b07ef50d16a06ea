package core_test

import (
	"context"
	"strings"
	"testing"

	"lrcex/internal/core"
	"lrcex/internal/faults"
	"lrcex/internal/trace"
)

// The trace determinism suite: the canonical span tree of a whole-grammar
// analysis — span names, IDs, sequence numbers, and deterministic attributes
// (conflict coordinates, outcome kinds) — must be byte-identical across every
// worker configuration, because span IDs derive from the trace ID and the
// conflict's table position, never from scheduling. Volatile attributes
// (wall-clock, expansion counters, time-bank draws) are excluded from the
// canonical form by construction.

// tracedCanonical runs FindAllContext under a fresh trace with a fixed trace
// ID and returns the canonical span tree.
func tracedCanonical(t *testing.T, name string, opts core.Options) string {
	t.Helper()
	_, tbl := build(t, name)
	tracer := trace.NewTracer(1)
	ctx, root := trace.New(context.Background(), tracer, "determinism", "findall")
	if _, err := core.NewFinder(tbl, opts).FindAllContext(ctx); err != nil {
		t.Fatal(err)
	}
	root.End()
	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	return traces[0].Canonical()
}

// detOpts are deterministic budgets (NoTimeout + MaxConfigs) at worker
// count j: the reports are then a pure function of the grammar.
func detOpts(j int) core.Options {
	return core.Options{
		PerConflictTimeout: core.NoTimeout,
		CumulativeTimeout:  core.NoTimeout,
		MaxConfigs:         20000,
		Parallelism:        j,
	}
}

// TestTraceDeterminismMatrix: the span tree at j ∈ {1,2,8} matches the
// sequential reference byte for byte. Deterministic budgets make the
// underlying reports identical, so the deterministic span attributes
// (outcome kinds included) must match too.
func TestTraceDeterminismMatrix(t *testing.T) {
	ref := tracedCanonical(t, "C.4", detOpts(1))
	if !strings.Contains(ref, "conflict.search#") {
		t.Fatalf("reference trace has no conflict spans:\n%s", ref)
	}
	for _, j := range []int{2, 8} {
		if got := tracedCanonical(t, "C.4", detOpts(j)); got != ref {
			t.Errorf("span tree at j=%d diverged from sequential reference:\n%s\nvs\n%s", j, got, ref)
		}
	}
}

// TestTraceDeterminismUnderFaults: an armed fault schedule replayed with the
// same seed produces the same span tree, recovery spans included. Faults are
// counter-indexed per point, so the runs must be sequential (j=1) for the
// firing-to-conflict assignment to be reproducible — which is exactly
// how a chaos investigation replays a failure.
func TestTraceDeterminismUnderFaults(t *testing.T) {
	opts := detOpts(1)
	opts.MaxConfigs = 2000
	cfg := faults.Config{
		Seed:  42,
		Rates: map[faults.Point]faults.Rate{faults.CoreUnifyExpand: {Prob: 1, Max: 2}},
	}
	defer faults.Disable()

	run := func() string {
		faults.Enable(cfg) // resets firing counters: an exact replay
		return tracedCanonical(t, "C.4", opts)
	}
	first := run()
	if !strings.Contains(first, "conflict.recover#") {
		t.Fatalf("armed schedule produced no recovery spans:\n%s", first)
	}
	if !strings.Contains(first, "outcome=nonunifying (recovered)") {
		t.Fatalf("recovered conflicts not stamped on their spans:\n%s", first)
	}
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("replayed fault schedule diverged on run %d:\n%s\nvs\n%s", i+2, got, first)
		}
	}
}
