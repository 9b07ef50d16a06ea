// Command lrbench is lrcex's benchmark. It runs one workload against the
// public entry points of the analysis layers (batch-corpus, in process) or
// against a cexd child process (serve-edit, serve-hot), checks every answer
// against the golden reports, and prints every metric by name with its unit.
// The last line of standard output is the result object:
//
//	{"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// measures once untraced and once traced and prints the per-layer ledger.
// perfbench/run.py builds this command and cexd and runs it; see
// perfbench/README.md for the workloads and metric definitions.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named value in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config carries the command line to the workloads.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root: goldens are read in place from here
	cexd     string // cexd binary (serve workloads)
	work     string // scratch directory for state dirs, logs and trace dumps
}

// setupRuns is how many times batch-corpus and serve-edit set up; the
// median is reported. A set-up takes a few milliseconds, so one stall of a
// shared host moves any single one by more than setup_s's bound.
const setupRuns = 25

// run is what a workload returns: the accounting, the end-to-end metrics
// (always measured untraced) and, in a traced run, the per-layer ledger.
type run struct {
	attempted, failed int
	wrong             []string // descriptions of wrong answers
	e2e               map[string]metric
	layers            map[string]metric
}

// wrongAnswer counts a reply that disagrees with the reference. Any wrong
// answer makes the run exit non-zero.
func (r *run) wrongAnswer(format string, args ...any) {
	r.failed++
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "batch-corpus, serve-edit or serve-hot")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = add a traced run and print the per-layer ledger")
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	flag.StringVar(&cfg.cexd, "cexd", "", "cexd binary")
	flag.StringVar(&cfg.work, "work", "", "scratch directory (default <root>/.bench_build/work)")
	setupProbe := flag.Bool("setup-probe", false, "load the golden references and exit (batch-corpus times this as its set-up)")
	flag.Parse()
	if *setupProbe {
		if _, err := loadReferences(cfg.root); err != nil {
			fatal(err)
		}
		return
	}
	cfg.trace = traceFlag == 1
	if cfg.work == "" {
		cfg.work = filepath.Join(cfg.root, ".bench_build", "work")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fatal(err)
	}

	header := map[string]any{
		"date":       time.Now().UTC().Format(time.RFC3339),
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"revision":   revision(cfg.root),
		"seed":       cfg.seed,
		"workload":   cfg.workload,
		"seconds":    cfg.seconds,
		"trace":      traceFlag,
	}
	hb, _ := json.Marshal(header)
	fmt.Printf("header %s\n", hb)

	var r *run
	var err error
	switch cfg.workload {
	case "batch-corpus":
		r, err = batchCorpus(cfg)
	case "serve-edit":
		r, err = serveEdit(cfg)
	case "serve-hot":
		r, err = serveHot(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want batch-corpus, serve-edit or serve-hot)", cfg.workload)
	}
	if err != nil {
		fatal(err)
	}

	res := result{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if cfg.trace {
		res.Metrics = r.layers
	}
	printMetrics("end-to-end", r.e2e)
	if cfg.trace {
		printMetrics("per-layer", r.layers)
	}
	for _, w := range r.wrong {
		fmt.Fprintln(os.Stderr, "WRONG:", w)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	saveResult(cfg, header, r)
	fmt.Println(string(out))
	if !res.Correct || res.Attempted == 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lrbench:", err)
	os.Exit(2)
}

func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %-34s %14.4f %s\n", title, n, ms[n].Value, ms[n].Unit)
	}
}

// saveResult keeps the header and every metric of the run beside the trace
// dumps, so a run can be inspected after the fact.
func saveResult(cfg config, header map[string]any, r *run) {
	doc := map[string]any{"header": header, "end_to_end": r.e2e, "per_layer": r.layers,
		"attempted": r.attempted, "failed": r.failed, "wrong": r.wrong}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return
	}
	name := fmt.Sprintf("%s-seed%d-trace%t.json", cfg.workload, cfg.seed, cfg.trace)
	if err := os.WriteFile(filepath.Join(cfg.work, name), b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "lrbench: saving result:", err)
	}
}

// revision names the code under test: the commit in the checkout's .git
// when there is one, otherwise a SHA-256 over the module's Go sources and
// go.mod files, so two exports of the same tree report the same revision.
func revision(root string) string {
	if rev := gitHead(filepath.Join(root, ".git")); rev != "" {
		return rev
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// gitHead resolves HEAD in a git directory without running git: a detached
// commit, a loose ref or a packed ref. It returns "" when there is none.
func gitHead(dir string) string {
	b, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if b, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(dir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}
