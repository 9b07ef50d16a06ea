package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lrcex/internal/corpus"
	"lrcex/internal/gdl"
	"lrcex/internal/lr"
)

// White-box tests for the concurrency plumbing: the options sentinel mapping,
// the atomic time-bank, the immutability fingerprint, and concurrent
// FindContext on one shared Finder (meant to run under -race).

func TestWithDefaults(t *testing.T) {
	d := Options{}.withDefaults()
	if d.PerConflictTimeout != 5*time.Second {
		t.Errorf("zero PerConflictTimeout -> %v, want 5s", d.PerConflictTimeout)
	}
	if d.CumulativeTimeout != 2*time.Minute {
		t.Errorf("zero CumulativeTimeout -> %v, want 2m", d.CumulativeTimeout)
	}
	if d.Parallelism != runtime.GOMAXPROCS(0) {
		t.Errorf("zero Parallelism -> %d, want GOMAXPROCS=%d", d.Parallelism, runtime.GOMAXPROCS(0))
	}

	// Negative durations are the NoTimeout sentinel and must survive
	// withDefaults untouched: "unlimited" is distinguishable from "default".
	n := Options{
		PerConflictTimeout: NoTimeout,
		CumulativeTimeout:  -7 * time.Second, // any negative means unlimited
		Parallelism:        3,
	}.withDefaults()
	if n.PerConflictTimeout >= 0 {
		t.Errorf("NoTimeout PerConflictTimeout rewritten to %v", n.PerConflictTimeout)
	}
	if n.CumulativeTimeout >= 0 {
		t.Errorf("negative CumulativeTimeout rewritten to %v", n.CumulativeTimeout)
	}
	if n.Parallelism != 3 {
		t.Errorf("explicit Parallelism rewritten to %d", n.Parallelism)
	}
}

func TestTimeBank(t *testing.T) {
	b := newTimeBank(100 * time.Millisecond)
	if b.exhausted() {
		t.Fatal("fresh bank already exhausted")
	}
	b.charge(99 * time.Millisecond)
	if b.exhausted() {
		t.Error("bank with 1ms left reports exhausted")
	}
	b.charge(time.Millisecond) // exact drain: remaining == 0 is exhausted
	if !b.exhausted() {
		t.Error("exactly drained bank not exhausted")
	}
	b.charge(time.Hour) // overdraft must be harmless
	if !b.exhausted() {
		t.Error("overdrawn bank not exhausted")
	}

	u := newTimeBank(NoTimeout)
	u.charge(1000 * time.Hour)
	if u.exhausted() {
		t.Error("unlimited bank exhausted after charges")
	}

	z := newTimeBank(0)
	if !z.exhausted() {
		t.Error("zero-budget bank not exhausted (withDefaults maps 0 away before the bank sees it)")
	}
}

func TestTimeBankConcurrentCharges(t *testing.T) {
	b := newTimeBank(time.Millisecond * 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				b.charge(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if !b.exhausted() {
		t.Errorf("64 concurrent 1ms charges against a 64ms bank: remaining %v, want exhausted",
			time.Duration(b.remaining.Load()))
	}
}

// TestTimeBankAdmitRace: a 1 ns bank admits exactly one of many concurrent
// searches, because admission withdraws from the bank in the same atomic
// step as its check, before any search has charged its elapsed time.
func TestTimeBankAdmitRace(t *testing.T) {
	b := newTimeBank(time.Nanosecond)
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.admit() {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := admitted.Load(); n != 1 {
		t.Errorf("1ns bank admitted %d of 8 concurrent searches, want 1", n)
	}
	if !b.exhausted() {
		t.Error("bank not exhausted after its only admission")
	}
	if !newTimeBank(NoTimeout).admit() {
		t.Error("unlimited bank refused admission")
	}
}

func buildInternal(t *testing.T, src string) *lr.Table {
	t.Helper()
	g, err := gdl.Parse("internal", src)
	if err != nil {
		t.Fatal(err)
	}
	return lr.BuildTable(lr.Build(g))
}

const figure1Like = `
stmt : 'if' expr 'then' stmt 'else' stmt
     | 'if' expr 'then' stmt
     | expr '?' stmt stmt
     | 'other'
     ;
expr : num | expr '+' expr ;
num : 'digit' | num 'digit' ;
`

// TestGraphImmutableAfterFindAll spot-checks the shared-graph contract that
// the parallel searches rely on: the fingerprint taken at construction still
// matches after a full parallel FindAll (and the race detector enforces the
// stronger claim when this package's tests run under -race).
func TestGraphImmutableAfterFindAll(t *testing.T) {
	tbl := buildInternal(t, figure1Like)
	f := NewFinder(tbl, Options{
		PerConflictTimeout: NoTimeout,
		CumulativeTimeout:  NoTimeout,
		MaxConfigs:         50000,
		Parallelism:        4,
	})
	if !f.g.assertImmutable() {
		t.Fatal("graph fingerprint broken before any search")
	}
	if _, err := f.FindAll(); err != nil {
		t.Fatal(err)
	}
	if !f.g.assertImmutable() {
		t.Error("graph mutated by FindAll: construction fingerprint no longer matches")
	}
}

// TestConcurrentFindContext hammers one shared Finder from many goroutines —
// each conflict searched several times concurrently — and checks every
// outcome agrees with the sequential reference. Primarily a -race target.
func TestConcurrentFindContext(t *testing.T) {
	tbl := buildInternal(t, figure1Like)
	if len(tbl.Conflicts) == 0 {
		t.Fatal("test grammar has no conflicts")
	}
	opts := Options{
		PerConflictTimeout: NoTimeout,
		CumulativeTimeout:  NoTimeout,
		MaxConfigs:         50000,
	}
	ref := make([]ExampleKind, len(tbl.Conflicts))
	seq := NewFinder(tbl, opts)
	for i, c := range tbl.Conflicts {
		ex, err := seq.Find(c)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = ex.Kind
	}

	shared := NewFinder(tbl, opts)
	var wg sync.WaitGroup
	errc := make(chan error, 3*len(tbl.Conflicts))
	for round := 0; round < 3; round++ {
		for i, c := range tbl.Conflicts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ex, err := shared.Find(c)
				if err != nil {
					errc <- err
					return
				}
				if ex.Kind != ref[i] {
					t.Errorf("conflict %d concurrent kind %v, sequential %v", i, ex.Kind, ref[i])
				}
			}()
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("concurrent Find: %v", err)
	}
}

// count is the number of objects the arena has handed out since its reset.
func (a *arena[T]) count() int64 { return int64(a.bi*arenaBlock + a.n) }

// TestAllocBytesCountsStoredConfigs checks the search's allocation
// accounting against what its arenas actually handed out: every cell, and a
// configuration only for each successor that survived dedup. Deduplicated
// successors are discarded before touching the config arena, so they must
// not count towards AllocBytes (and hence not towards MaxArenaBytes).
func TestAllocBytesCountsStoredConfigs(t *testing.T) {
	e, ok := corpus.Get("xi")
	if !ok {
		t.Fatal("corpus grammar xi not found")
	}
	tbl := buildInternal(t, e.Source)
	f := NewFinder(tbl, Options{})
	mem := &searchMem{}
	var dedup int
	for _, c := range tbl.Conflicts {
		u := newUnifySearch(f.g, c, f.opts.Costs, nil, 20000, 0, mem)
		u.run(context.Background())
		s := u.stats()
		dedup += u.DedupHits
		want := mem.icells.count()*icellSize + mem.dcells.count()*dcellSize + s.Pushed*configSize
		if s.AllocBytes != want {
			t.Errorf("state %d: AllocBytes = %d, want %d (icells·%d + dcells·%d + Pushed %d·%d)",
				c.State, s.AllocBytes, want, icellSize, dcellSize, s.Pushed, configSize)
		}
		if got := mem.configs.count(); got != s.Pushed {
			t.Errorf("state %d: config arena handed out %d configurations, Pushed = %d", c.State, got, s.Pushed)
		}
	}
	if dedup == 0 {
		t.Fatal("no dedup hits: the test does not exercise discarded successors")
	}
}
