package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lrcex/internal/core"
	"lrcex/internal/gdl"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
	"lrcex/internal/metamorph"
	"lrcex/internal/server"
	"lrcex/internal/trace"
	"lrcex/perfbench/ledger"
)

// traceRing holds every request trace of a traced window.
const traceRing = 1 << 16

// input is one prepared request: its body, the golden it is checked
// against and the name map that translates its reply into golden names.
type input struct {
	ref    int // index into the workload's references
	repair bool
	body   []byte
	names  nameMap
	fp     string
}

// sample is one request as the load generator saw it.
type sample struct {
	in        *input
	due, sent time.Time // due = scheduled send time (open loop) or send time
	done      time.Time
	status    int
	body      []byte // kept only until checked
	hash      [32]byte
	err       error
	ok        bool // 200, right cache path, correct answer
	unifying  int
}

func (s *sample) latencyMS() float64 { return ms(s.done.Sub(s.due)) }

// window is one measured load phase against one server.
type window struct {
	samples []*sample
	elapsed time.Duration
	cpu     time.Duration // server CPU over the phase
	rss     float64       // server VmHWM over the phase
	start   time.Time
	m0, m1  map[string]float64
	g0, g1  memStats
	spans   *ledger.SpanSet // traced phases only

	sliceLen time.Duration
	sliceCPU []time.Duration // server CPU per slice
}

// editBases are the compile-heavy Table-1 grammars: on them parsing, LALR
// construction and the state-item graph cost ~14 ms against ~2 ms of search
// at the golden budget.
var editBases = []string{"simp2", "SQL.2", "SQL.3", "SQL.5", "Pascal.3", "Pascal.4", "Pascal.5", "C.1", "C.5", "Java.1", "Java.3", "Java.5"}

// editPool yields serve-edit inputs: input i is a fresh rename-symbols
// mutant of base grammar i mod 12, and a repair request when i mod 5 is 4.
// Since 5 and 12 are coprime, every run of 60 inputs sends each base
// grammar four analyses and one repair, so the mix is the same at every
// seed; the seed picks the mutants. The mutator's tag has only 16 bits, so
// a mutant whose fingerprint already occurred in the run is replaced by
// another: every request must miss both caches.
type editPool struct {
	mu      sync.Mutex
	refs    []reference
	bases   []*grammar.Grammar
	rng     *rand.Rand
	seen    map[string]bool
	inputs  []*input
	dropped int
}

func newEditPool(refs []reference, seed int64) (*editPool, error) {
	p := &editPool{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
	for _, name := range editBases {
		for _, ref := range refs {
			if ref.entry.Name != name {
				continue
			}
			g, err := gdl.Parse(name, ref.entry.Source)
			if err != nil {
				return nil, err
			}
			p.refs = append(p.refs, ref)
			p.bases = append(p.bases, g)
		}
	}
	if len(p.refs) != len(editBases) {
		return nil, fmt.Errorf("serve-edit: found %d of %d base grammars", len(p.refs), len(editBases))
	}
	return p, nil
}

// get returns input i, generating inputs up to it on first use.
func (p *editPool) get(i int) (*input, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.inputs) <= i {
		b := len(p.inputs) % len(p.refs)
		mseed := p.rng.Uint64()
		ref := p.refs[b]
		m, err := metamorph.RenameSymbols.Apply(metamorph.Input{Name: ref.entry.Name, Source: ref.entry.Source, Grammar: p.bases[b]}, mseed)
		if err != nil {
			return nil, err
		}
		if m == nil || m.Source == "" {
			return nil, fmt.Errorf("serve-edit: rename-symbols gave no GDL source for %s", ref.entry.Name)
		}
		fp, err := server.Fingerprint(ref.entry.Name, m.Source)
		if err != nil {
			return nil, err
		}
		if p.seen[fp] {
			p.dropped++
			continue
		}
		p.seen[fp] = true
		in := &input{ref: b, repair: len(p.inputs)%5 == 4, names: newNameMap(m.Grammar, ref.records), fp: fp}
		opts := server.AnalyzeOptions{NoTimeout: true, MaxConfigs: goldenBudget}
		if in.repair {
			in.body, err = json.Marshal(server.RepairRequest{Name: ref.entry.Name, Grammar: m.Source, Options: opts})
		} else {
			in.body, err = json.Marshal(server.AnalyzeRequest{Name: ref.entry.Name, Grammar: m.Source, Options: opts})
		}
		if err != nil {
			return nil, err
		}
		p.inputs = append(p.inputs, in)
	}
	return p.inputs[i], nil
}

func url(c *cexd, in *input) string {
	if in.repair {
		return c.base + "/v1/repair"
	}
	return c.base + "/v1/analyze"
}

// closedLoop runs nproc clients, each sending its next request only after
// the previous reply, until the window closes.
func closedLoop(c *cexd, pool *editPool, d time.Duration) ([]*sample, time.Duration, error) {
	hc := newClient()
	defer hc.CloseIdleConnections()
	var next atomic.Int64
	clients := runtime.NumCPU()
	per := make([][]*sample, clients)
	errs := make([]error, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Since(start) < d {
				in, err := pool.get(int(next.Add(1) - 1))
				if err != nil {
					errs[k] = err
					return
				}
				s := &sample{in: in, due: time.Now()}
				s.sent = s.due
				s.status, s.body, s.err = post(hc, url(c, in), in.body)
				s.done = time.Now()
				per[k] = append(per[k], s)
			}
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []*sample
	for k := range per {
		if errs[k] != nil {
			return nil, 0, errs[k]
		}
		out = append(out, per[k]...)
	}
	return out, elapsed, nil
}

// checkEdit checks one serve-edit reply: 200, both caches missed, the
// conflicts and per-conflict kinds equal to the base grammar's golden, and
// for repairs no surviving language-breaking suggestion. State numbers are
// left out of the coordinates because printing the renamed grammar back to
// GDL declares its symbols in another order, which renumbers the LALR
// states; the symbols and items identify each conflict instead.
func checkEdit(r *run, refs []reference, s *sample) {
	r.attempted++
	defer func() { s.body = nil }()
	name := refs[s.in.ref].entry.Name
	if s.err != nil || s.status != 200 {
		r.failure("%s: status %d, %v", name, s.status, s.err)
		return
	}
	w, err := decodeResponse(s.body)
	if err != nil {
		r.wrongAnswer("%s: %v", name, err)
		return
	}
	if w.Cached || w.CompileCached || w.Partial {
		r.failure("%s: cached=%t compile_cached=%t partial=%t; serve-edit must miss both caches", name, w.Cached, w.CompileCached, w.Partial)
		return
	}
	got, err := w.outcomes(s.in.names, false)
	if err != nil {
		r.wrongAnswer("%s: %v", name, err)
		return
	}
	if d := ledger.DiffOutcomes(ledger.Outcomes(refs[s.in.ref].records, false), got); d != "" {
		r.wrongAnswer("%s (fingerprint %s): %s", name, s.in.fp, d)
		return
	}
	if s.in.repair {
		switch {
		case w.Repair == nil:
			r.wrongAnswer("%s: repair reply without a repair report", name)
			return
		case w.Repair.Partial:
			r.failure("%s: partial repair report", name)
			return
		case w.survivingBreaking() > 0:
			r.wrongAnswer("%s: %d language-breaking repair suggestion(s) survived", name, w.survivingBreaking())
			return
		}
	}
	s.ok, s.unifying = true, w.unifying()
}

// checkEditWindow checks every reply of a window and returns the latencies
// of the correct analyze and repair replies.
func checkEditWindow(r *run, refs []reference, w *window) (analyzeLat, repairLat []float64) {
	for _, s := range w.samples {
		checkEdit(r, refs, s)
		if !s.ok {
			continue
		}
		if s.in.repair {
			repairLat = append(repairLat, s.latencyMS())
		} else {
			analyzeLat = append(analyzeLat, s.latencyMS())
		}
	}
	return analyzeLat, repairLat
}

// editSlice is serve-edit's slice length: long enough for the analyze p95
// of a slice to have ten samples beyond it.
const editSlice = 5 * time.Second

func serveEdit(cfg config) (*run, error) {
	refs, err := loadReferences(cfg.root)
	if err != nil {
		return nil, err
	}
	pool, err := newEditPool(refs, cfg.seed)
	if err != nil {
		return nil, err
	}
	// Prepare inputs for well above the expected throughput, so the
	// generator does not compete with the server during the window.
	if _, err := pool.get(cfg.seconds*200 - 1); err != nil {
		return nil, err
	}
	d := time.Duration(cfg.seconds) * time.Second
	slices := max(1, int(d/editSlice))
	phase := func(traced bool) (*window, float64, error) {
		c, setup, err := bootCexd(cfg, "serve-edit", traced, setupRuns, nil)
		if err != nil {
			return nil, 0, err
		}
		defer c.stop()
		w, err := measure(c, traced, d, slices, func() ([]*sample, time.Duration, error) {
			return closedLoop(c, pool, d)
		})
		return w, setup, err
	}

	r := &run{}
	w, setup, err := phase(false)
	if err != nil {
		return nil, err
	}
	analyzeLat, repairLat := checkEditWindow(r, pool.refs, w)
	st := sliceFigures(w, 95, func(s *sample) (bool, float64, bool) {
		return s.ok, s.latencyMS(), s.ok && !s.in.repair
	})
	p50, tail := ledger.Percentile(analyzeLat, 50), ledger.Percentile(analyzeLat, 95)
	rp50, rp90 := ledger.Percentile(repairLat, 50), ledger.Percentile(repairLat, 90)
	fmt.Printf("serve-edit: %d requests in %.2f s (%d duplicate mutants replaced), analyze p50 %.2f ms p95 %.2f ms (n=%d, %d beyond), repair p50 %.2f ms p90 %.2f ms (n=%d, %d beyond); reported figures are medians of %d slices\n",
		len(w.samples), w.elapsed.Seconds(), pool.dropped, p50.Value, tail.Value, tail.N, tail.Beyond, rp50.Value, rp90.Value, rp90.N, rp90.Beyond, len(st.p50))
	r.e2e = serveE2E(r, w, setup, st)
	if !cfg.trace {
		return r, nil
	}

	tw, _, err := phase(true)
	if err != nil {
		return nil, err
	}
	checkEditWindow(r, pool.refs, tw)
	l := serveLayers(w, tw)
	if rp90.OK() {
		l["client.repair_p50_ms"] = metric{rp50.Value, "ms"}
		l["client.repair_p90_ms"] = metric{rp90.Value, "ms"}
	} else {
		fmt.Fprintf(os.Stderr, "lrbench: repair p90 has only %d samples beyond it; not reported\n", rp90.Beyond)
	}
	build, table, compile, err := replayCompile(tw.samples)
	if err != nil {
		return nil, err
	}
	l["lr.build_ms"] = metric{build, "ms"}
	l["lr.table_ms"] = metric{table, "ms"}
	l["core.compile_ms"] = metric{compile, "ms"}
	r.layers = l
	return r, nil
}

// replayCompile splits the server's table.build span into LR(0) +
// lookaheads, table and state-item graph by replaying those calls in this
// process on the first 100 mutants the traced window sent. It returns the
// mean milliseconds of each.
func replayCompile(samples []*sample) (build, table, compile float64, err error) {
	n := 0
	for _, s := range samples {
		if n == 100 {
			break
		}
		var req server.AnalyzeRequest
		if err := json.Unmarshal(s.in.body, &req); err != nil {
			return 0, 0, 0, err
		}
		g, err := gdl.Parse(req.Name, req.Grammar)
		if err != nil {
			return 0, 0, 0, err
		}
		t0 := time.Now()
		a := lr.Build(g)
		t1 := time.Now()
		tbl := lr.BuildTable(a)
		t2 := time.Now()
		core.Compile(tbl)
		t3 := time.Now()
		build, table, compile = build+ms(t1.Sub(t0)), table+ms(t2.Sub(t1)), compile+ms(t3.Sub(t2))
		n++
	}
	if n == 0 {
		return 0, 0, 0, nil
	}
	return build / float64(n), table / float64(n), compile / float64(n), nil
}

// measure runs one load phase of length d, reading the server's CPU at the
// start and end of each of the phase's slices, its peak RSS, /metrics and
// (when it has a debug listener) MemStats around it, and in a traced run its
// spans afterwards.
func measure(c *cexd, traced bool, d time.Duration, slices int, load func() ([]*sample, time.Duration, error)) (*window, error) {
	w := &window{}
	var err error
	_ = resetPeakRSS(c.pid())
	if w.m0, err = c.scrape(); err != nil {
		return nil, err
	}
	if c.debugBase != "" {
		if w.g0, err = c.memStats(); err != nil {
			return nil, err
		}
	}
	cpu0, err := pidCPU(c.pid())
	if err != nil {
		return nil, err
	}
	w.start = time.Now()
	w.sliceLen = d / time.Duration(slices)
	w.sliceCPU = make([]time.Duration, slices)
	sampled := make(chan error, 1)
	go func() {
		prev := cpu0
		for j := range w.sliceCPU {
			time.Sleep(time.Until(w.start.Add(time.Duration(j+1) * w.sliceLen)))
			cpu, err := pidCPU(c.pid())
			if err != nil {
				sampled <- err
				return
			}
			w.sliceCPU[j], prev = cpu-prev, cpu
		}
		sampled <- nil
	}()
	w.samples, w.elapsed, err = load()
	if serr := <-sampled; err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	cpu1, err := pidCPU(c.pid())
	if err != nil {
		return nil, err
	}
	w.cpu = cpu1 - cpu0
	if w.rss, err = peakRSSMB(c.pid()); err != nil {
		return nil, err
	}
	if c.debugBase != "" {
		if w.g1, err = c.memStats(); err != nil {
			return nil, err
		}
	}
	if w.m1, err = c.scrape(); err != nil {
		return nil, err
	}
	if traced {
		all, err := c.traces()
		if err != nil {
			return nil, err
		}
		var kept []trace.TraceJSON
		for _, t := range all {
			if t.StartNS >= w.start.UnixNano() && len(t.Spans) > 0 && t.Spans[0].Name == "http.request" {
				kept = append(kept, t)
			}
		}
		w.spans = ledger.NewSpanSet(kept)
		dumpJSON(filepath.Join(c.dir, "traces.json"), kept)
	}
	return w, nil
}

// slice is one equal part of a window: the requests due in it and the
// server CPU spent during it.
type slice struct {
	samples []*sample
	cpu     time.Duration
	dur     time.Duration
}

// slices splits the window by each request's due time. Requests due after
// the last boundary (none, by construction) would join the last slice.
func (w *window) slices() []slice {
	out := make([]slice, len(w.sliceCPU))
	for j := range out {
		out[j].cpu, out[j].dur = w.sliceCPU[j], w.sliceLen
	}
	for _, s := range w.samples {
		j := int(s.due.Sub(w.start) / w.sliceLen)
		j = min(max(j, 0), len(out)-1)
		out[j].samples = append(out[j].samples, s)
	}
	return out
}

// sliceStats are the per-slice figures a serve workload reports as medians
// over its slices, which keeps one stall from moving a whole run's figures.
type sliceStats struct {
	p50, tail, opsPerS, cpuPerOp []float64
}

// picker says, for one sample, whether it counts as an operation and which
// latency, if any, it contributes.
type picker func(s *sample) (op bool, lat float64, hasLat bool)

// sliceFigures computes a window's per-slice figures. When a slice holds too
// few latencies for its tail percentile, the whole window becomes one
// slice; when even that holds too few, the tail is still reported and a
// warning names the sample count.
func sliceFigures(w *window, tailP float64, pick picker) sliceStats {
	sls := w.slices()
	if st, ok := figuresOf(sls, tailP, pick); ok {
		return st
	}
	whole := slice{dur: w.sliceLen * time.Duration(len(sls))}
	for _, sl := range sls {
		whole.samples = append(whole.samples, sl.samples...)
		whole.cpu += sl.cpu
	}
	st, ok := figuresOf([]slice{whole}, tailP, pick)
	if !ok {
		fmt.Fprintf(os.Stderr, "lrbench: warning: p%g of the whole window has fewer than %d samples beyond it\n", tailP, ledger.MinBeyond)
	}
	return st
}

func figuresOf(sls []slice, tailP float64, pick picker) (sliceStats, bool) {
	var st sliceStats
	ok := true
	for _, sl := range sls {
		var lat []float64
		ops := 0
		for _, s := range sl.samples {
			op, l, hasLat := pick(s)
			if op {
				ops++
			}
			if hasLat {
				lat = append(lat, l)
			}
		}
		p50, tail := ledger.Percentile(lat, 50), ledger.Percentile(lat, tailP)
		ok = ok && tail.OK()
		st.p50 = append(st.p50, p50.Value)
		st.tail = append(st.tail, tail.Value)
		st.opsPerS = append(st.opsPerS, float64(ops)/sl.dur.Seconds())
		if len(sl.samples) > 0 {
			st.cpuPerOp = append(st.cpuPerOp, ms(sl.cpu)/float64(len(sl.samples)))
		}
	}
	return st, ok
}

func okCount(w *window) int {
	n := 0
	for _, s := range w.samples {
		if s.ok {
			n++
		}
	}
	return n
}

// serveE2E builds the end-to-end metrics shared by both serve workloads:
// medians over the window's slices, except peak RSS (the whole window) and
// unifying_found, which counts each base grammar's unifying examples once,
// from its first correct reply.
func serveE2E(r *run, w *window, setup float64, st sliceStats) map[string]metric {
	seen := map[int]bool{}
	unifying := 0
	for _, s := range w.samples {
		if s.ok && !seen[s.in.ref] {
			seen[s.in.ref] = true
			unifying += s.unifying
		}
	}
	return map[string]metric{
		"setup_s":        {setup, "s"},
		"ops_per_s":      {ledger.Median(st.opsPerS), "1/s"},
		"cpu_ms_per_op":  {ledger.Median(st.cpuPerOp), "ms"},
		"peak_rss_mb":    {w.rss, "MB"},
		"p50_ms":         {ledger.Median(st.p50), "ms"},
		"tail_ms":        {ledger.Median(st.tail), "ms"},
		"unifying_found": {float64(unifying), "count"},
		"ok_share":       {float64(r.attempted-r.failed) / float64(r.attempted), "share"},
	}
}

// serveLayers builds the per-layer ledger of a serve workload from the
// untraced window u (client timings, Go runtime) and the traced window t
// (spans, /metrics). Times are means per request.
func serveLayers(u, t *window) map[string]metric {
	l := zeroLayers()
	ss := t.spans
	reqs := ss.Named("http.request")
	n := float64(len(reqs))
	if n == 0 {
		return l
	}
	perReq := func(name string) float64 { return ledger.Sum(ss.DurationsMS(name)) / n }
	mean := func(name string) float64 { return ledger.Mean(ss.DurationsMS(name)) }
	delta := func(name string) float64 { return t.m1[name] - t.m0[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	var self, covered float64
	for _, s := range reqs {
		sf := ss.Self(s)
		self += sf
		covered += 1 - ratio(sf, s.DurUS/1000)
	}
	l["server.request_self_ms"] = metric{self / n, "ms"}
	l["trace.span_coverage"] = metric{covered / n, "share"}
	l["server.cache_result.lookup_ms"] = metric{mean("cache.result"), "ms"}
	l["server.queue_wait_ms"] = metric{mean("queue.wait"), "ms"}
	l["server.singleflight_lead_ms"] = metric{mean("singleflight.lead"), "ms"}
	l["gdl.parse_ms"] = metric{perReq("gdl.parse"), "ms"}
	l["server.table_build_ms"] = metric{perReq("table.build"), "ms"}
	l["core.findall_ms"] = metric{perReq("search"), "ms"}
	searches := ss.DurationsMS("conflict.search")
	l["core.search_ms"] = metric{ledger.Sum(searches) / n, "ms"}
	l["core.search_max_ms"] = metric{ledger.Max(searches), "ms"}
	states := 0.0
	for _, s := range ss.Named("table.build") {
		states += ledger.NumAttr(s, "states")
	}
	l["lr.states"] = metric{states / n, "count"}
	l["persist.append_ms"] = metric{mean("persist.append"), "ms"}
	l["persist.appends_per_req"] = metric{float64(len(ss.Named("persist.append"))) / n, "count"}
	l["persist.bytes_per_req"] = metric{delta("cexd_persist_bytes_on_disk") / n, "bytes"}
	l["repair.validate_ms"] = metric{mean("repair.validate"), "ms"}
	l["repair.candidates"] = metric{ratio(delta("cexd_repair_candidates_total"), delta("cexd_repair_runs_total")), "count"}
	l["repair.validated_per_candidate"] = metric{ratio(delta("cexd_repair_validated_total"), delta("cexd_repair_candidates_total")), "share"}
	hits, misses := delta("cexd_cache_hits_total"), delta("cexd_cache_misses_total")
	l["server.cache_result.hit_ratio"] = metric{ratio(hits, hits+misses), "share"}
	chits, cmisses := delta("cexd_compile_cache_hits_total"), delta("cexd_compile_cache_misses_total")
	l["server.cache_compile.hit_ratio"] = metric{ratio(chits, chits+cmisses), "share"}
	l["server.shed"] = metric{delta("cexd_shed_total"), "count"}
	for _, name := range []string{"expanded", "pushed", "dedup_hits", "path_expanded"} {
		l["core."+name] = metric{delta("cexd_search_"+name+"_total") / n, "count"}
	}

	partial := 0
	for _, s := range u.samples {
		if s.status == 504 {
			partial++
		}
	}
	l["server.partial"] = metric{float64(partial), "count"}
	alloc, cycles, pause := gcDelta(u.g0, u.g1)
	un := float64(len(u.samples))
	l["go.alloc_mb"] = metric{alloc / un, "MB"}
	l["go.gc_cycles"] = metric{cycles / un, "count"}
	l["go.gc_pause_ms"] = metric{pause / un, "ms"}
	l["loadgen.sent"] = metric{un, "count"}
	l["loadgen.completed"] = metric{float64(okCount(u)), "count"}
	ucpu := ms(u.cpu) / un
	tcpu := ms(t.cpu) / float64(len(t.samples))
	l["trace.overhead_pct"] = metric{(tcpu/ucpu - 1) * 100, "%"}
	return l
}
