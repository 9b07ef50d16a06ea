package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lrcex/internal/trace"
	"lrcex/perfbench/ledger"
)

// cexd is one cexd child process with a scratch state directory.
type cexd struct {
	cmd       *exec.Cmd
	base      string // http://host:port
	debugBase string // pprof listener ("" when not started)
	dir       string // scratch directory: state, log, trace dump
	exited    chan struct{}
	waitErr   error
}

// startCexd boots cexd on a free loopback port with a fresh -state-dir and
// waits until /healthz answers. traceBuf 0 disables tracing; debug adds the
// pprof listener, whose heap profile carries the Go runtime's MemStats.
func startCexd(cfg config, name string, traceBuf int, debug bool) (*cexd, error) {
	dir := filepath.Join(cfg.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "state"), 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-state-dir", filepath.Join(dir, "state"),
		"-trace-buf", strconv.Itoa(traceBuf),
		"-log-format", "text",
	}
	c := &cexd{base: fmt.Sprintf("http://127.0.0.1:%d", port), dir: dir, exited: make(chan struct{})}
	if debug {
		dport, err := freePort()
		if err != nil {
			return nil, err
		}
		args = append(args, "-debug-addr", fmt.Sprintf("127.0.0.1:%d", dport))
		c.debugBase = fmt.Sprintf("http://127.0.0.1:%d", dport)
	}
	logf, err := os.Create(filepath.Join(dir, "cexd.log"))
	if err != nil {
		return nil, err
	}
	c.cmd = exec.Command(cfg.cexd, args...)
	c.cmd.Stdout, c.cmd.Stderr = logf, logf
	if err := c.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting cexd: %w", err)
	}
	go func() {
		c.waitErr = c.cmd.Wait()
		logf.Close()
		close(c.exited)
	}()
	// Poll without pausing: a refused connection returns at once, while a
	// sleep between polls would round the boot time up to the Go timer's
	// millisecond steps, a large share of a few-millisecond boot.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		select {
		case <-c.exited:
			return nil, fmt.Errorf("cexd exited during start-up: %v (log in %s)", c.waitErr, dir)
		default:
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("cexd not healthy after 30 s (log in %s)", dir)
		}
	}
}

// bootCexd sets a server up n times — boot, then prime unless prime is nil
// — and keeps the last one. The set-up time is the median of the n.
func bootCexd(cfg config, name string, traced bool, n int, prime func(*cexd) error) (*cexd, float64, error) {
	buf := 0
	if traced {
		buf = traceRing
	}
	var times []float64
	var c *cexd
	for i := 0; i < n; i++ {
		if c != nil {
			c.stop()
		}
		t0 := time.Now()
		var err error
		if c, err = startCexd(cfg, name, buf, cfg.trace); err != nil {
			return nil, 0, err
		}
		if prime != nil {
			if err := prime(c); err != nil {
				c.stop()
				return nil, 0, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return c, ledger.Median(times), nil
}

// stop drains cexd with SIGTERM and waits for it to exit, killing it if the
// drain takes longer than a minute.
func (c *cexd) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(time.Minute):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
}

func (c *cexd) pid() int { return c.cmd.Process.Pid }

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// newClient returns an HTTP client holding at most nproc connections.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}
}

// post sends one request and reads the whole reply.
func post(hc *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// scrape reads the unlabelled samples of cexd's /metrics.
func (c *cexd) scrape() (map[string]float64, error) {
	b, err := get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// traces fetches the request traces cexd retained.
func (c *cexd) traces() ([]trace.TraceJSON, error) {
	b, err := get(c.base + "/debug/traces")
	if err != nil {
		return nil, err
	}
	var out struct {
		Retained int               `json:"retained"`
		Total    int64             `json:"total"`
		Traces   []trace.TraceJSON `json:"traces"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("decoding /debug/traces: %w", err)
	}
	if int64(out.Retained) != out.Total {
		return nil, fmt.Errorf("trace ring dropped %d of %d traces", out.Total-int64(out.Retained), out.Total)
	}
	return out.Traces, nil
}

// memStats is the part of cexd's runtime.MemStats the ledger uses.
type memStats struct {
	totalAlloc, numGC uint64
	pauseNs           []uint64 // the runtime's 256-entry circular buffer
}

var memStatsLine = regexp.MustCompile(`^# (TotalAlloc|NumGC|PauseNs) = \[?([0-9 ]+)\]?$`)

// memStats reads cexd's MemStats from the pprof heap profile's text form.
func (c *cexd) memStats() (memStats, error) {
	var ms memStats
	if c.debugBase == "" {
		return ms, fmt.Errorf("cexd started without a debug listener")
	}
	b, err := get(c.debugBase + "/debug/pprof/heap?debug=1")
	if err != nil {
		return ms, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		m := memStatsLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var nums []uint64
		for _, f := range strings.Fields(m[2]) {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return ms, err
			}
			nums = append(nums, v)
		}
		switch m[1] {
		case "TotalAlloc":
			ms.totalAlloc = nums[0]
		case "NumGC":
			ms.numGC = nums[0]
		case "PauseNs":
			ms.pauseNs = nums
		}
	}
	return ms, nil
}

// gcDelta returns the allocation, GC cycles and total GC pause between two
// MemStats readings. Pauses are summed from the circular buffer, which
// holds the last 256 cycles.
func gcDelta(a, b memStats) (allocMB, cycles, pauseMS float64) {
	allocMB = float64(b.totalAlloc-a.totalAlloc) / (1 << 20)
	cycles = float64(b.numGC - a.numGC)
	if len(b.pauseNs) == 256 {
		for n := a.numGC; n < b.numGC && b.numGC-n <= 256; n++ {
			pauseMS += float64(b.pauseNs[n%256]) / 1e6
		}
	}
	return allocMB, cycles, pauseMS
}
