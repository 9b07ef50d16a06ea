package ledger

import (
	"math"
	"testing"
	"time"

	"lrcex/internal/trace"
)

func TestPercentileSampleCountRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	q := Percentile(xs, 99)
	if q.Value != 990 || q.N != 1000 || q.Beyond != 10 || !q.OK() {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990 with 10 beyond", q)
	}
	q = Percentile(xs[:999], 99)
	if q.OK() {
		t.Fatalf("p99 of 999 samples has %d beyond; must not be reportable", q.Beyond)
	}
	// 42 grammars: p75 has 10 beyond, p90 only 4.
	if q := Percentile(xs[:42], 75); !q.OK() || q.Beyond != 10 {
		t.Fatalf("p75 of 42 = %+v, want 10 beyond", q)
	}
	if q := Percentile(xs[:42], 90); q.OK() {
		t.Fatalf("p90 of 42 = %+v must not be reportable", q)
	}
	if q := Percentile(nil, 50); q.OK() || q.N != 0 {
		t.Fatalf("empty percentile = %+v", q)
	}
	if xs[0] != 1000 {
		t.Fatal("Percentile sorted its input in place")
	}
	if m := Median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeUnionOfOverlappingChildren(t *testing.T) {
	parent := Interval{0, 100}
	// Two concurrent searches overlapping on [20,40), plus one hanging off
	// the parent's end: covered = [10,50) ∪ [90,100) = 50.
	kids := []Interval{{10, 40}, {20, 50}, {90, 130}}
	if got := SelfTime(parent, kids); got != 50 {
		t.Fatalf("self time = %d, want 50", got)
	}
	// A plain sum of child durations would give 100-30-30-10 = 30.
	if got := UnionLength([]Interval{{0, 10}, {0, 10}, {5, 15}, {20, 25}}); got != 20 {
		t.Fatalf("union = %d, want 20", got)
	}
	if got := SelfTime(parent, nil); got != 100 {
		t.Fatalf("childless self time = %d, want 100", got)
	}
}

func TestSpanSetSelf(t *testing.T) {
	us := func(ns int64) float64 { return float64(ns) / 1000 }
	tr := trace.TraceJSON{TraceID: "x", Spans: []trace.SpanJSON{
		{ID: "1", Name: "search", StartNS: 0, DurUS: us(10e6)},
		{ID: "2", Parent: "1", Name: "conflict.search", StartNS: 1e6, DurUS: us(6e6)},
		{ID: "3", Parent: "1", Name: "conflict.search", StartNS: 2e6, DurUS: us(6e6)},
	}}
	ss := NewSpanSet([]trace.TraceJSON{tr})
	if got := ss.Self(ss.Named("search")[0]); math.Abs(got-3) > 1e-9 {
		t.Fatalf("search self = %v ms, want 3", got)
	}
}

func TestPoissonScheduleReproducible(t *testing.T) {
	a := PoissonSchedule(7, 200, 10*time.Second)
	b := PoissonSchedule(7, 200, 10*time.Second)
	c := PoissonSchedule(8, 200, 10*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule not monotone at %d", i)
		}
	}
	if len(a) == len(c) && a[0] == c[0] && a[len(a)-1] == c[len(c)-1] {
		t.Fatal("different seeds gave the same schedule")
	}
	// 2000 expected arrivals; the count is Poisson with sd ~45.
	if n := len(a); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals at 200/s over 10s", n)
	}
	if a[len(a)-1] >= 10*time.Second {
		t.Fatal("arrival past the end of the window")
	}
}

const sample = `conflict: reduce/reduce state=7 sym=t1 syms=(t1 t2)
item1: n1 -> t0 •
item2: n2 -> t0 •
kind: nonunifying (timeout)
merged: lalr-state-merge
prefix: t0
after1: t1
after2: t1

conflict: shift/reduce state=15 sym=t8 syms=(t8)
item1: n1 -> n1 t8 n1 •
item2: n1 -> n1 • t8 n1
kind: unifying
nonterminal: n1
form: n1 t8 n1 • t8 n1
deriv1: (n1 p6 (n1 p6 n1 t8 n1) t8 n1)
deriv2: (n1 p6 n1 t8 (n1 p6 n1 t8 n1))
`

func TestParseGolden(t *testing.T) {
	recs, err := ParseGolden(sample)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	r := recs[0]
	if r.ConflictKind != "reduce/reduce" || r.State != 7 || r.Sym != "t1" || r.Syms != "t1 t2" ||
		r.Item1 != "n1 -> t0 •" || r.Item2 != "n2 -> t0 •" || r.Kind != "nonunifying (timeout)" {
		t.Fatalf("record 0 = %+v", r)
	}
	if recs[1].Kind != "unifying" || recs[1].State != 15 || CountUnifying(recs) != 1 {
		t.Fatalf("record 1 = %+v", recs[1])
	}
	if got := recs[1].Coord(true); got != "shift/reduce state=15 sym=t8 syms=(t8) | n1 -> n1 t8 n1 • | n1 -> n1 • t8 n1" {
		t.Fatalf("coord = %q", got)
	}
	if _, err := ParseGolden("conflict: shift/reduce sym=t8\nkind: unifying\n"); err == nil {
		t.Fatal("malformed conflict line accepted")
	}
}

func TestOutcomeComparisons(t *testing.T) {
	recs, err := ParseGolden(sample)
	if err != nil {
		t.Fatal(err)
	}
	want := Outcomes(recs, true)
	if d := DiffOutcomes(want, []Outcome{want[1], want[0]}); d != "" {
		t.Fatalf("order must not matter: %s", d)
	}
	flipped := []Outcome{want[0], {Coord: want[1].Coord, Kind: "nonunifying"}}
	if DiffOutcomes(want, flipped) == "" {
		t.Fatal("changed kind not reported")
	}
	// Losing a unifying example is allowed at a smaller budget ...
	if d := DiffUnifyingSubset(want, flipped); d != "" {
		t.Fatalf("lost unifying example rejected: %s", d)
	}
	// ... claiming one the golden lacks is not, nor is a missing conflict.
	claimed := []Outcome{{Coord: want[0].Coord, Kind: "unifying"}, want[1]}
	if DiffUnifyingSubset(want, claimed) == "" {
		t.Fatal("extra unifying example accepted")
	}
	if DiffUnifyingSubset(want, want[:1]) == "" {
		t.Fatal("missing conflict accepted")
	}
}
