package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"lrcex/internal/gdl"
	"lrcex/internal/metamorph"
	"lrcex/internal/server"
	"lrcex/perfbench/ledger"
)

const (
	// hotBudget is the result-cache priming budget (the bench_serve.sh one).
	hotBudget = 5000
	// hotRate is serve-hot's open-loop arrival rate, an eighth of the
	// ~2000/s capacity measured on a 2-CPU host. At half and at a quarter of
	// the capacity, replies queued behind the large ones on the nproc
	// connections, and the p99 doubled whenever the host took CPU time from
	// the virtual machine (see README.md).
	hotRate = 250.0
	// hotLimitMS is the latency limit a reply must meet to count as goodput.
	hotLimitMS = 100.0
	// hotSlice is serve-hot's slice length: 1500 arrivals, so each slice's
	// p99 has 15 samples beyond it.
	hotSlice = 6 * time.Second
	// hotVariants is how many formatting variants each source gets.
	hotVariants = 8
)

// hotInputs builds the cache-priming requests (the 42 sources as they are)
// and the measured ones: ws-churn and comment-churn variants of each source,
// different bytes with the same fingerprint.
func hotInputs(refs []reference, seed int64) (prime, variants []*input, err error) {
	opts := server.AnalyzeOptions{NoTimeout: true, MaxConfigs: hotBudget}
	for i, ref := range refs {
		g, err := gdl.Parse(ref.entry.Name, ref.entry.Source)
		if err != nil {
			return nil, nil, err
		}
		names := newNameMap(g, ref.records)
		fp, err := server.Fingerprint(ref.entry.Name, ref.entry.Source)
		if err != nil {
			return nil, nil, err
		}
		body, err := json.Marshal(server.AnalyzeRequest{Name: ref.entry.Name, Grammar: ref.entry.Source, Options: opts})
		if err != nil {
			return nil, nil, err
		}
		prime = append(prime, &input{ref: i, body: body, names: names, fp: fp})
		for v := 0; v < hotVariants; v++ {
			mut := metamorph.WSChurn
			if v%2 == 1 {
				mut = metamorph.CommentChurn
			}
			m, err := mut.Apply(metamorph.Input{Name: ref.entry.Name, Source: ref.entry.Source, Grammar: g}, uint64(seed)*hotVariants+uint64(v))
			if err != nil {
				return nil, nil, err
			}
			body, err := json.Marshal(server.AnalyzeRequest{Name: ref.entry.Name, Grammar: m.Source, Options: opts})
			if err != nil {
				return nil, nil, err
			}
			variants = append(variants, &input{ref: i, body: body, names: names, fp: fp})
		}
	}
	return prime, variants, nil
}

// checkHot checks one serve-hot reply: 200, answered from the result cache
// (when cached is required), the fingerprint of its source, the exact
// conflict coordinates of the golden and no unifying example the golden
// lacks (the priming budget is a tenth of the golden one, so it may find
// fewer).
func checkHot(r *run, refs []reference, s *sample, wantCached bool) {
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
	if wantCached && !w.Cached || w.Partial {
		r.failure("%s: cached=%t partial=%t; serve-hot must be answered from the result cache", name, w.Cached, w.Partial)
		return
	}
	if w.Fingerprint != s.in.fp {
		r.wrongAnswer("%s: fingerprint %s, want %s", name, w.Fingerprint, s.in.fp)
		return
	}
	got, err := w.outcomes(s.in.names, true)
	if err != nil {
		r.wrongAnswer("%s: %v", name, err)
		return
	}
	if d := ledger.DiffUnifyingSubset(ledger.Outcomes(refs[s.in.ref].records, true), got); d != "" {
		r.wrongAnswer("%s: %s", name, d)
		return
	}
	s.ok, s.unifying = true, w.unifying()
}

// primeCache sends every source once, nproc at a time, and checks the
// replies. Set-up failures are errors: the window would not measure a hot
// cache.
func primeCache(c *cexd, refs []reference, prime []*input) error {
	hc := newClient()
	defer hc.CloseIdleConnections()
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	samples := make([]*sample, len(prime))
	for i, in := range prime {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, in *input) {
			defer wg.Done()
			defer func() { <-sem }()
			s := &sample{in: in}
			s.status, s.body, s.err = post(hc, c.base+"/v1/analyze", in.body)
			samples[i] = s
		}(i, in)
	}
	wg.Wait()
	var pr run
	for _, s := range samples {
		checkHot(&pr, refs, s, false)
	}
	if pr.failed > 0 {
		return fmt.Errorf("priming the result cache: %d of %d replies failed: %v", pr.failed, pr.attempted, pr.wrong)
	}
	return nil
}

// openLoop sends the variants on a seeded Poisson schedule, one goroutine
// per arrival over at most nproc connections, and times each reply from
// the moment it was due. Arrival i asks for source i mod 42, so the mix of
// small and large replies is the same at every seed.
func openLoop(c *cexd, variants []*input, seed int64, d time.Duration) ([]*sample, time.Duration) {
	sched := ledger.PoissonSchedule(seed, hotRate, d)
	sources := len(variants) / hotVariants
	samples := make([]*sample, len(sched))
	for i := range sched {
		samples[i] = &sample{in: variants[(i%sources)*hotVariants+(i/sources)%hotVariants]}
	}
	hc := newClient()
	defer hc.CloseIdleConnections()
	var replies sync.Map
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range sched {
		s := samples[i]
		s.due = start.Add(at)
		time.Sleep(time.Until(s.due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.sent = time.Now()
			s.status, s.body, s.err = post(hc, c.base+"/v1/analyze", s.in.body)
			s.done = time.Now()
			// Replies to one fingerprint are byte-identical cache hits: keep
			// one copy of each distinct reply for checking, not one per
			// request.
			s.hash = sha256.Sum256(s.body)
			if prev, loaded := replies.LoadOrStore(s.hash, s.body); loaded {
				s.body = prev.([]byte)
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

func serveHot(cfg config) (*run, error) {
	refs, err := loadReferences(cfg.root)
	if err != nil {
		return nil, err
	}
	prime, variants, err := hotInputs(refs, cfg.seed)
	if err != nil {
		return nil, err
	}
	d := time.Duration(cfg.seconds) * time.Second
	slices := max(1, int(d/hotSlice))
	phase := func(traced bool) (*window, float64, error) {
		c, setup, err := bootCexd(cfg, "serve-hot", traced, 3, func(c *cexd) error {
			return primeCache(c, refs, prime)
		})
		if err != nil {
			return nil, 0, err
		}
		defer c.stop()
		w, err := measure(c, traced, d, slices, func() ([]*sample, time.Duration, error) {
			s, e := openLoop(c, variants, cfg.seed, d)
			return s, e, nil
		})
		return w, setup, err
	}

	r := &run{}
	w, setup, err := phase(false)
	if err != nil {
		return nil, err
	}
	lat, late, good := checkHotWindow(r, refs, w)
	st := sliceFigures(w, 99, func(s *sample) (bool, float64, bool) {
		return s.ok && s.latencyMS() <= hotLimitMS, s.latencyMS(), s.ok
	})
	p50, tail := ledger.Percentile(lat, 50), ledger.Percentile(lat, 99)
	lateQ := ledger.Percentile(late, 99)
	fmt.Printf("serve-hot: %d arrivals at %.0f/s in %.2f s, p50 %.2f ms p99 %.2f ms (n=%d, %d beyond), goodput %d within %.0f ms, generator late p99 %.3f ms; reported figures are medians of %d slices\n",
		len(w.samples), hotRate, w.elapsed.Seconds(), p50.Value, tail.Value, tail.N, tail.Beyond, good, hotLimitMS, lateQ.Value, len(st.p50))
	r.e2e = serveE2E(r, w, setup, st)
	if !cfg.trace {
		return r, nil
	}
	tw, _, err := phase(true)
	if err != nil {
		return nil, err
	}
	checkHotWindow(r, refs, tw)
	l := serveLayers(w, tw)
	l["loadgen.late_p99_ms"] = metric{lateQ.Value, "ms"}
	r.layers = l
	return r, nil
}

// checkHotWindow checks every reply of a window and returns the latencies
// of the correct ones, how late each send was, and how many correct replies
// met the latency limit. Cache hits for one fingerprint are byte-identical,
// so a reply identical to one already found correct is not decoded again.
func checkHotWindow(r *run, refs []reference, w *window) (lat, late []float64, good int) {
	checked := map[[32]byte]*sample{}
	for _, s := range w.samples {
		if prev := checked[s.hash]; prev != nil && prev.ok && s.err == nil && s.status == 200 && prev.in.fp == s.in.fp {
			r.attempted++
			s.ok, s.unifying = true, prev.unifying
		} else {
			checkHot(r, refs, s, true)
			checked[s.hash] = s
		}
		late = append(late, ms(s.sent.Sub(s.due)))
		if s.ok {
			lat = append(lat, s.latencyMS())
			if s.latencyMS() <= hotLimitMS {
				good++
			}
		}
	}
	return lat, late, good
}
