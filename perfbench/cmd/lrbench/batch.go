package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"lrcex/internal/core"
	"lrcex/internal/corpus"
	"lrcex/internal/engine"
	"lrcex/internal/gdl"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
	"lrcex/internal/trace"
	"lrcex/perfbench/ledger"
)

// goldenBudget is the golden tests' deterministic search budget: no wall
// clock anywhere and a fixed configuration cap, so every run does the same
// work and the canonical reports are a pure function of the grammar.
const goldenBudget = 50000

// batchTailP is batch-corpus's tail percentile: the highest whole
// percentile with ten of the corpus's 758 conflicts beyond it.
const batchTailP = 98.0

func goldenOptions() core.Options {
	return core.Options{
		PerConflictTimeout: core.NoTimeout,
		CumulativeTimeout:  core.NoTimeout,
		MaxConfigs:         goldenBudget,
		Parallelism:        runtime.NumCPU(),
	}
}

// reference is one corpus grammar with its golden canonical report, read in
// place from internal/core/testdata/golden so a re-golden moves it too.
type reference struct {
	entry   *corpus.Entry
	golden  string
	records []ledger.Record
}

func loadReferences(root string) ([]reference, error) {
	var refs []reference
	for _, e := range corpus.All() {
		b, err := os.ReadFile(filepath.Join(root, "internal", "core", "testdata", "golden", e.Name+".golden"))
		if err != nil {
			return nil, fmt.Errorf("golden for %s: %w", e.Name, err)
		}
		recs, err := ledger.ParseGolden(string(b))
		if err != nil {
			return nil, fmt.Errorf("golden for %s: %w", e.Name, err)
		}
		refs = append(refs, reference{entry: e, golden: string(b), records: recs})
	}
	if len(refs) != 42 {
		return nil, fmt.Errorf("corpus has %d grammars, want the 42 of Table 1", len(refs))
	}
	return refs, nil
}

// analysis is one grammar taken through the whole pipeline.
type analysis struct {
	g         *grammar.Grammar
	tbl       *lr.Table
	exs       []*core.Example
	stats     core.SearchStats
	canonical string
	elapsed   time.Duration
}

// analyzeGrammar runs gdl.Parse → lr.Build → lr.BuildTable → core.Compile →
// Finder.FindAll → Example.Report/core.CanonicalReport. When ctx carries a
// trace, each call gets a span; otherwise the span helpers cost one atomic
// load each.
func analyzeGrammar(ctx context.Context, e *corpus.Entry, opts core.Options) (*analysis, error) {
	start := time.Now()
	sp := trace.Child(ctx, "gdl.parse")
	g, err := gdl.Parse(e.Name, e.Source)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = trace.Child(ctx, "lr.build")
	a := lr.Build(g)
	sp.Set("states", len(a.States))
	sp.End()
	sp = trace.Child(ctx, "lr.table")
	tbl := lr.BuildTable(a)
	sp.End()
	sp = trace.Child(ctx, "core.compile")
	c := core.Compile(tbl)
	sp.End()
	f := core.NewFinderFromCompiled(c, opts)
	sctx, ssp := trace.Start(ctx, "search")
	exs, err := f.FindAllContext(sctx)
	ssp.End()
	if err != nil {
		return nil, err
	}
	sp = trace.Child(ctx, "report")
	n := 0
	for _, ex := range exs {
		n += len(ex.Report(tbl.A))
	}
	canonical := core.CanonicalReport(tbl.A, exs)
	sp.Set("bytes", n)
	sp.End()
	return &analysis{g: g, tbl: tbl, exs: exs, stats: f.Stats(), canonical: canonical, elapsed: time.Since(start)}, nil
}

// passResult is one timed pass over the corpus.
type passResult struct {
	wall, cpu   time.Duration
	perConflict []float64 // each conflict's time to a verdict, ms
	results     []*analysis
	errs        []error
}

func corpusPass(ctx context.Context, refs []reference, opts core.Options) passResult {
	pr := passResult{results: make([]*analysis, len(refs)), errs: make([]error, len(refs))}
	cpu0, t0 := selfCPU(), time.Now()
	for i, ref := range refs {
		gctx, gsp := trace.Start(ctx, "grammar")
		gsp.Set("grammar", ref.entry.Name)
		pr.results[i], pr.errs[i] = analyzeGrammar(gctx, ref.entry, opts)
		gsp.End()
		if res := pr.results[i]; res != nil {
			for _, ex := range res.exs {
				pr.perConflict = append(pr.perConflict, ms(ex.Elapsed))
			}
		}
	}
	pr.wall, pr.cpu = time.Since(t0), selfCPU()-cpu0
	return pr
}

// checkPass compares each grammar's canonical report byte for byte with its
// golden and re-parses every unifying example with the GLR oracle. It
// returns the unifying count, the oracle's time and its unconfirmed count.
func checkPass(r *run, refs []reference, pr passResult) (unifying int, oracle time.Duration, unconfirmed int) {
	for i, ref := range refs {
		r.attempted++
		res, err := pr.results[i], pr.errs[i]
		if err != nil {
			r.wrongAnswer("%s: %v", ref.entry.Name, err)
			continue
		}
		if res.canonical != ref.golden {
			r.wrongAnswer("%s: canonical report differs from its golden", ref.entry.Name)
			continue
		}
		t0 := time.Now()
		bad := 0
		for _, ex := range res.exs {
			if !ex.Kind.IsUnifying() {
				continue
			}
			unifying++
			n, err := engine.ValidateAmbiguous(res.g, ex.Nonterminal, ex.Syms)
			switch {
			case errors.Is(err, engine.ErrForkLimit):
				unconfirmed++
			case err != nil || n < 2:
				bad++
			}
		}
		oracle += time.Since(t0)
		if bad > 0 {
			r.wrongAnswer("%s: GLR oracle refutes %d unifying example(s)", ref.entry.Name, bad)
		}
	}
	return unifying, oracle, unconfirmed
}

func batchCorpus(cfg config) (*run, error) {
	// Set-up is everything before the first grammar can be analysed: process
	// start, package initialisation (the corpus registry) and loading the 42
	// golden reports. It is timed as a child process, setupRuns times; the
	// median is reported.
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setupS []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if out, err := exec.Command(self, "-setup-probe", "-root", cfg.root).CombinedOutput(); err != nil {
			return nil, fmt.Errorf("set-up probe: %v: %s", err, out)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	refs, err := loadReferences(cfg.root)
	if err != nil {
		return nil, err
	}
	opts := goldenOptions()
	r := &run{}

	// Untraced passes until the window is used, at least one.
	runtime.GC()
	_ = resetPeakRSS(0)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var walls, cpus, lat []float64
	var unifying, unconfirmed int
	var oracle time.Duration
	window := time.Now()
	for len(walls) == 0 || time.Since(window) < time.Duration(cfg.seconds)*time.Second {
		pr := corpusPass(context.Background(), refs, opts)
		runtime.ReadMemStats(&ms1)
		walls = append(walls, pr.wall.Seconds())
		cpus = append(cpus, pr.cpu.Seconds())
		lat = append(lat, pr.perConflict...)
		unifying, oracle, unconfirmed = checkPass(r, refs, pr)
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	passes := float64(len(walls))
	wall, cpu := ledger.Median(walls), ledger.Median(cpus)
	p50, tail := ledger.Percentile(lat, 50), ledger.Percentile(lat, batchTailP)
	fmt.Printf("batch-corpus: %d pass(es), wall %.3f s, cpu %.3f s, per-conflict verdict p50 %.2f ms p%g %.2f ms (n=%d, %d beyond), unifying %d, oracle %.0f ms, unconfirmed %d\n",
		len(walls), wall, cpu, p50.Value, batchTailP, tail.Value, tail.N, tail.Beyond, unifying, ms(oracle), unconfirmed)
	if !tail.OK() {
		return nil, fmt.Errorf("p%g has only %d samples beyond it", batchTailP, tail.Beyond)
	}
	n := float64(len(refs))
	r.e2e = map[string]metric{
		"setup_s":        {ledger.Median(setupS), "s"},
		"ops_per_s":      {n / wall, "1/s"},
		"cpu_ms_per_op":  {cpu * 1000 / n, "ms"},
		"peak_rss_mb":    {rss, "MB"},
		"p50_ms":         {p50.Value, "ms"},
		"tail_ms":        {tail.Value, "ms"},
		"unifying_found": {float64(unifying), "count"},
		"ok_share":       {float64(r.attempted-r.failed) / float64(r.attempted), "share"},
	}
	if !cfg.trace {
		return r, nil
	}

	layers := zeroLayers()
	layers["go.alloc_mb"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / passes, "MB"}
	layers["go.gc_cycles"] = metric{float64(ms1.NumGC-ms0.NumGC) / passes, "count"}
	layers["go.gc_pause_ms"] = metric{float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / passes, "ms"}
	layers["engine.oracle_ms"] = metric{ms(oracle), "ms"}
	layers["engine.oracle_unconfirmed"] = metric{float64(unconfirmed), "count"}

	// One traced pass; its spans stay in memory until the pass ends.
	tracer := trace.NewTracer(1)
	ctx, root := trace.New(context.Background(), tracer, "batch-corpus", "run")
	tpr := corpusPass(ctx, refs, opts)
	root.End()
	traces := tracer.Traces()
	if len(traces) != 1 {
		return nil, fmt.Errorf("traced pass left %d traces", len(traces))
	}
	dumpTraces(cfg, traces)
	ss := ledger.NewSpanSet([]trace.TraceJSON{traces[0].JSON()})
	batchLayers(layers, ss, tpr, opts.Parallelism)
	layers["trace.overhead_pct"] = metric{(tpr.wall.Seconds()/wall - 1) * 100, "%"}

	lasp, err := laspPass(refs)
	if err != nil {
		return nil, err
	}
	layers["core.lasp_ms"] = metric{lasp, "ms"}
	r.layers = layers
	return r, nil
}

// batchLayers fills the per-layer ledger from the traced pass.
func batchLayers(l map[string]metric, ss *ledger.SpanSet, pr passResult, parallelism int) {
	sum := func(name string) float64 { return ledger.Sum(ss.DurationsMS(name)) }
	l["gdl.parse_ms"] = metric{sum("gdl.parse"), "ms"}
	l["lr.build_ms"] = metric{sum("lr.build"), "ms"}
	l["lr.table_ms"] = metric{sum("lr.table"), "ms"}
	l["core.compile_ms"] = metric{sum("core.compile"), "ms"}
	l["core.findall_ms"] = metric{sum("search"), "ms"}
	l["core.report_ms"] = metric{sum("report"), "ms"}
	searches := ss.DurationsMS("conflict.search")
	busy := ledger.Sum(searches)
	l["core.search_ms"] = metric{busy, "ms"}
	l["core.search_max_ms"] = metric{ledger.Max(searches), "ms"}
	if findall := sum("search"); findall > 0 {
		l["core.pool_idle_share"] = metric{1 - busy/(findall*float64(parallelism)), "share"}
	}

	states := 0.0
	for _, s := range ss.Named("lr.build") {
		states += ledger.NumAttr(s, "states")
	}
	l["lr.states"] = metric{states, "count"}

	var st core.SearchStats
	var peakFrontier, arena int64
	kinds := map[core.ExampleKind]int{}
	for _, res := range pr.results {
		if res == nil {
			continue
		}
		st.Add(res.stats)
		for _, ex := range res.exs {
			kinds[ex.Kind]++
			peakFrontier = max(peakFrontier, ex.Stats.PeakFrontier)
			arena = max(arena, ex.Stats.AllocBytes)
		}
	}
	l["core.expanded"] = metric{float64(st.Expanded), "count"}
	l["core.pushed"] = metric{float64(st.Pushed), "count"}
	l["core.dedup_hits"] = metric{float64(st.DedupHits), "count"}
	l["core.path_expanded"] = metric{float64(st.PathExpanded), "count"}
	l["core.peak_frontier"] = metric{float64(peakFrontier), "count"}
	l["core.arena_mb"] = metric{float64(arena) / (1 << 20), "MB"}
	if busy > 0 {
		l["core.expansions_per_s"] = metric{float64(st.Expanded) / (busy / 1000), "1/s"}
	}
	l["core.unifying"] = metric{float64(kinds[core.Unifying]), "count"}
	l["core.exhausted"] = metric{float64(kinds[core.NonunifyingExhausted]), "count"}
	l["core.budget_stopped"] = metric{float64(kinds[core.NonunifyingTimeout]), "count"}
	l["core.recovered"] = metric{float64(kinds[core.NonunifyingRecovered]), "count"}
	l["core.memory_stopped"] = metric{float64(kinds[core.NonunifyingMemory]), "count"}
	if st.Expanded > 0 {
		l["core.unifying_per_mexpanded"] = metric{float64(kinds[core.Unifying]) / (float64(st.Expanded) / 1e6), "count"}
	}

	// Coverage: the share of the pass's wall time inside the benchmark's
	// layer spans (the children of each grammar span).
	var covered int64
	for _, g := range ss.Named("grammar") {
		var ivs []ledger.Interval
		for _, c := range ss.Children(g.ID) {
			ivs = append(ivs, ledger.SpanInterval(c))
		}
		covered += ledger.UnionLength(ivs)
	}
	l["trace.span_coverage"] = metric{float64(covered) / float64(pr.wall.Nanoseconds()), "share"}
}

// laspPass times core.DescribePath, the shortest lookahead-sensitive path,
// for every conflict, in a pass of its own so it is not counted as tracing
// overhead. DescribePath rebuilds the state-item graph on every call, so the
// grammar's graph build time (best of three) is subtracted per conflict.
func laspPass(refs []reference) (float64, error) {
	total := 0.0
	for _, ref := range refs {
		g, err := gdl.Parse(ref.entry.Name, ref.entry.Source)
		if err != nil {
			return 0, err
		}
		tbl := lr.BuildTable(lr.Build(g))
		graph := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			core.Compile(tbl)
			graph = min(graph, time.Since(t0))
		}
		for _, c := range tbl.Conflicts {
			t0 := time.Now()
			if _, err := core.DescribePath(tbl, c); err != nil {
				return 0, fmt.Errorf("%s: %w", ref.entry.Name, err)
			}
			total += max(0, ms(time.Since(t0)-graph))
		}
	}
	return total, nil
}

// dumpTraces writes the traced run's spans with the trace package's Chrome
// export (chrome://tracing, Perfetto) into the scratch directory.
func dumpTraces(cfg config, traces []*trace.Trace) {
	path := filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, trace.Chrome(traces), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "lrbench: writing traces:", err)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dumpJSON writes v as JSON, reporting (not failing on) errors: the dump is
// for inspection after the run.
func dumpJSON(path string, v any) {
	b, err := json.Marshal(v)
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lrbench: writing", path+":", err)
	}
}
