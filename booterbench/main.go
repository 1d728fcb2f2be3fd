// Command booterbench is the repository's end-to-end benchmark. It builds
// booterserve and bootergen from the checkout it runs in, generates a
// seeded takedown-shaped scenario per workload, drives the system under
// test through its CLI flags only, checks every answer against the
// scenario manifest, and prints one JSON result line:
//
//	bash booterbench/run.sh --workload replay|live|dashboard --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics of the
// untraced run. With --trace 1 the workload's input is replayed
// in-process through a ladder of layer probes (spool, protocols,
// honeypot, ingest, wire, serve, its); the result carries the per-layer
// metrics, and the spans are written as Perfetto-loadable JSON under
// .bench_build/traces. See README.md for the workloads and the layer →
// metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks counts the checked operations of a run: every query answer,
// every panel comparison and every session's final offset is one.
type checks struct {
	attempted, failed int
	errs              []string
}

// check books one checked operation and remembers the first failures.
func (c *checks) check(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.errs) < 20 {
			c.errs = append(c.errs, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// okRatio is the share of checked operations that succeeded.
func (c *checks) okRatio() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.attempted-c.failed) / float64(c.attempted)
}

// bench is one benchmark invocation's context.
type bench struct {
	root    string // checkout root
	build   string // .bench_build under the root
	seed    int64
	seconds time.Duration
	chk     checks
	// diag collects diagnostics that are printed beside the result:
	// generator lateness, the memory probe, sample counts, box identity.
	diag map[string]any
}

func main() {
	root := flag.String("root", ".", "checkout root (run.sh passes it)")
	workload := flag.String("workload", "", "workload to run: replay, live or dashboard")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 runs the traced in-process layer ladder instead of the end-to-end run")
	flag.Parse()

	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	w, ok := workloads[*workload]
	if !ok {
		fatalf("unknown --workload %q (want replay, live or dashboard)", *workload)
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fatalf("%v", err)
	}
	b := &bench{
		root:    abs,
		build:   filepath.Join(abs, ".bench_build"),
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		diag:    map[string]any{},
	}
	b.diag["workload"] = w.name
	b.diag["seed"] = *seed
	b.diag["nproc"] = runtime.NumCPU()
	b.diag["cpu_model"] = cpuModel()
	b.diag["go_version"] = runtime.Version()

	if err := b.buildBinaries(); err != nil {
		fatalf("build: %v", err)
	}
	in, err := b.inputs(w.scenario(b))
	if err != nil {
		fatalf("inputs: %v", err)
	}

	// The memory-latency probe runs beside every run, before and after
	// it, so a reader can tell box drift from a code change.
	probeBefore := memProbe()
	var metrics map[string]metric
	if *traced == 1 {
		metrics, err = b.ladder(w, in)
	} else {
		metrics, err = w.run(b, in)
	}
	probeAfter := memProbe()
	if err != nil {
		b.chk.check(false, "%s: %v", w.name, err)
	}
	memprobe := (probeBefore + probeAfter) / 2
	b.diag["box.memprobe_ms"] = memprobe
	if *traced == 1 && metrics != nil {
		metrics["box.memprobe_ms"] = metric{memprobe, "ms"}
	}

	res := result{
		Correct:   b.chk.failed == 0 && err == nil,
		Attempted: b.chk.attempted,
		Failed:    b.chk.failed,
		Metrics:   metrics,
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	for _, e := range b.chk.errs {
		fmt.Fprintf(os.Stderr, "booterbench: check failed: %s\n", e)
	}
	b.diag["checks_attempted"] = b.chk.attempted
	b.diag["checks_failed"] = b.chk.failed
	diag, _ := json.Marshal(map[string]any{"diagnostics": b.diag})
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(diag))
	b.saveResult(*traced, diag, line)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// e2eMetrics assembles the end-to-end metric set every workload reports.
func e2eMetrics(b *bench, setups []float64, pktsPerS float64, fresh []float64, cpuPerPkt, rssMB float64) (map[string]metric, error) {
	p50, err := percentile(fresh, 0.5)
	if err != nil {
		return nil, fmt.Errorf("freshness: %w", err)
	}
	p90, err := percentile(fresh, 0.9)
	if err != nil {
		return nil, fmt.Errorf("freshness: %w", err)
	}
	b.diag["setup_samples"] = len(setups)
	return map[string]metric{
		"setup_s":        {median(setups), "s"},
		"pkts_per_s":     {pktsPerS, "1/s"},
		"fresh_p50_ms":   {p50, "ms"},
		"fresh_p90_ms":   {p90, "ms"},
		"cpu_us_per_pkt": {cpuPerPkt, "us"},
		"rss_peak_mb":    {rssMB, "MB"},
		"ok_ratio":       {b.chk.okRatio(), "ratio"},
	}, nil
}

// saveResult keeps a copy of each run's diagnostics and result under
// .bench_build/results, so box drift can be read back across runs.
func (b *bench) saveResult(traced int, diag, line []byte) {
	dir := filepath.Join(b.build, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%s.json", b.diag["workload"], b.seed, traced, time.Now().UTC().Format("20060102T150405"))
	// A lost copy loses nothing the run reports: both lines are on stdout.
	_ = os.WriteFile(filepath.Join(dir, name), []byte(string(diag)+"\n"+string(line)+"\n"), 0o644)
}

// cpuModel reads the first CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fatalf reports a harness failure and exits non-zero without printing a
// result.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "booterbench: "+format+"\n", args...)
	os.Exit(2)
}
