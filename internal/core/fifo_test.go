package core_test

// End-to-end coverage for the bucket-queue frontier, whose equal-cost
// configurations pop in push (FIFO) order. The tie-break decides which of
// several equally minimal witnesses is reported, so the tests below check the
// properties that must hold whatever it picks: results are valid
// counterexamples, outcomes (kinds) do not depend on the number of workers
// under deterministic budgets, and repeated runs are byte-identical.

import (
	"strings"
	"testing"

	"lrcex/internal/core"
	"lrcex/internal/corpus"
	"lrcex/internal/gdl"
	"lrcex/internal/lr"
)

func fifoOpts(parallelism int) core.Options {
	return core.Options{
		PerConflictTimeout: core.NoTimeout,
		CumulativeTimeout:  core.NoTimeout,
		MaxConfigs:         50000,
		Parallelism:        parallelism,
	}
}

func fifoReports(t *testing.T, tbl *lr.Table, parallelism int) ([]*core.Example, string) {
	t.Helper()
	f := core.NewFinder(tbl, fifoOpts(parallelism))
	exs, err := f.FindAll()
	if err != nil {
		t.Fatalf("FindAll: %v", err)
	}
	var sb strings.Builder
	for _, ex := range exs {
		sb.WriteString(ex.Report(tbl.A))
		sb.WriteByte('\n')
	}
	return exs, sb.String()
}

func TestFIFOFrontier(t *testing.T) {
	for _, name := range []string{"figure1", "figure3", "figure7", "xi", "stackovf10", "SQL.2"} {
		name := name
		t.Run(name, func(t *testing.T) {
			e, ok := corpus.Get(name)
			if !ok {
				t.Fatalf("corpus grammar %q not found", name)
			}
			g, err := gdl.Parse(name, e.Source)
			if err != nil {
				t.Fatal(err)
			}
			tbl := lr.BuildTable(lr.Build(g))

			seqExs, seqRep := fifoReports(t, tbl, 1)
			parExs, _ := fifoReports(t, tbl, 4)

			// Every result is a valid counterexample.
			for _, ex := range seqExs {
				switch ex.Kind {
				case core.Unifying:
					checkUnifying(t, g, ex)
				default:
					validateNonunifying(t, g, tbl, ex)
				}
			}
			// Outcomes agree between sequential and parallel search: each
			// conflict's search runs on one goroutine with its own
			// configuration cap, so the worker count cannot change whether a
			// unifying witness exists within the budget.
			if len(seqExs) != len(parExs) {
				t.Fatalf("example count %d sequential != %d parallel", len(seqExs), len(parExs))
			}
			for i := range seqExs {
				if seqExs[i].Kind != parExs[i].Kind {
					t.Errorf("conflict %d: kind %v sequential, %v parallel",
						i, seqExs[i].Kind, parExs[i].Kind)
				}
			}
			// Determinism: a second run reproduces the reports exactly.
			_, again := fifoReports(t, tbl, 1)
			if again != seqRep {
				t.Error("bucket-queue frontier reports differ between identical runs")
			}
		})
	}
}
