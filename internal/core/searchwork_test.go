package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lrcex/internal/corpus"
)

// searchWorkPath records the unifying search's work per corpus grammar under
// goldenOpts: expanded, pushed, dedup hits and peak frontier. The search is
// deterministic under these budgets, so the counts are a pure function of the
// grammar and the search semantics.
var searchWorkPath = filepath.Join("testdata", "searchwork.txt")

// TestSearchWorkPinned locks the amount of search work alongside the golden
// reports: a performance change to the search core (data structures, memory
// layout, batching) must leave every count unchanged, so a change that
// silently prunes or duplicates configurations shows up here even when the
// reports happen to agree. The fast grammars are compared by default, all 42
// under -goldenall. Regenerate (only for an intended change in search
// semantics) with
//
//	go test ./internal/core/ -run TestSearchWorkPinned -update
func TestSearchWorkPinned(t *testing.T) {
	var want map[string]string
	if !*updateGolden {
		data, err := os.ReadFile(searchWorkPath)
		if err != nil {
			t.Fatalf("missing search-work file (run with -update to create): %v", err)
		}
		want = map[string]string{}
		for _, line := range strings.Split(string(data), "\n") {
			if name, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
				want[name] = line
			}
		}
	}

	var out strings.Builder
	out.WriteString("# grammar expanded pushed dedup_hits peak_frontier\n")
	for _, e := range corpus.All() {
		t.Run(e.Name, func(t *testing.T) {
			if slowGolden[e.Name] && !*goldenAll && !*updateGolden {
				t.Skip("slow grammar; run with -goldenall to include")
			}
			s := takeGolden(t, e).stats
			got := fmt.Sprintf("%s %d %d %d %d", e.Name, s.Expanded, s.Pushed, s.DedupHits, s.PeakFrontier)
			fmt.Fprintln(&out, got)
			if *updateGolden {
				return
			}
			if got != want[e.Name] {
				t.Errorf("search work changed\n got: %s\nwant: %s", got, want[e.Name])
			}
		})
	}
	if *updateGolden && !t.Failed() {
		if err := os.WriteFile(searchWorkPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
