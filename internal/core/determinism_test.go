package core_test

import (
	"testing"

	"lrcex/internal/core"
	"lrcex/internal/corpus"
	"lrcex/internal/gdl"
	"lrcex/internal/lr"
)

// TestParallelDeterminism is the schedule-independence regression test: with
// deterministic budgets (NoTimeout + MaxConfigs) the canonical report of a
// Parallelism:8 FindAll must be byte-identical across 20 runs. The grammars
// cover the paper's two signature conflicts — figure1 contains both the
// dangling-else conflict (Figure 5) and the challenging conflict of Section
// 3.1 (Figure 9) — plus stackovf05, the corpus dangling-else grammar whose
// conflict is reduce-reduce, and a spread of small corpus grammars with
// many equal-cost ties (figure3, figure7, xi, stackovf10, SQL.2), where the
// frontier's FIFO tie-break decides which witness is reported.
func TestParallelDeterminism(t *testing.T) {
	const runs = 20
	for _, name := range []string{"figure1", "figure3", "figure7", "xi", "stackovf05", "stackovf10", "SQL.2"} {
		t.Run(name, func(t *testing.T) {
			e, ok := corpus.Get(name)
			if !ok {
				t.Fatalf("corpus grammar %q not found", name)
			}
			g, err := gdl.Parse(e.Name, e.Source)
			if err != nil {
				t.Fatal(err)
			}
			tbl := lr.BuildTable(lr.Build(g))
			if len(tbl.Conflicts) == 0 {
				t.Fatalf("%s: no conflicts to search", name)
			}
			opts := core.Options{
				PerConflictTimeout: core.NoTimeout,
				CumulativeTimeout:  core.NoTimeout,
				MaxConfigs:         200000,
				Parallelism:        8,
			}
			var ref string
			for run := 0; run < runs; run++ {
				exs, err := core.NewFinder(tbl, opts).FindAll()
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				got := core.CanonicalReport(tbl.A, exs)
				if run == 0 {
					ref = got
					continue
				}
				if got != ref {
					t.Fatalf("run %d: report output differs from run 0:\n--- run 0 ---\n%s\n--- run %d ---\n%s",
						run, ref, run, got)
				}
			}
		})
	}
}
