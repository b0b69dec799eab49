// Command e2ebench is the repository's end-to-end benchmark. One run drives
// one workload for a fixed time, checks every verdict against the committed
// answers in expected.json, and prints one JSON line of metrics:
//
//	e2ebench --workload serve-light --seed 1 --seconds 15 --trace 0
//
// Workloads: serve-light (open loop against a single-node lrserved
// service), fleet-cluster (closed-loop batches through a coordinator with
// three in-process workers) and design-heavy (closed-loop library calls:
// synthesis and all-lane verification). --trace 1 runs the same load, then
// replays the engine work lane by lane and prints the per-layer metrics
// instead of the end-to-end ones. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one printed metric. The lists below are the code side
// of BENCHMARK.json; consistency_test.go keeps the two equal.
type metricDef struct {
	Name string
	Unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"verdicts_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"service.http_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.compile_ms", "ms"},
	{"service.spec_cache_hit_rate", "ratio"},
	{"service.result_cache_hit_rate", "ratio"},
	{"service.rejected", "count"},
	{"service.retries", "count"},
	{"cluster.leases_granted", "count"},
	{"cluster.lease_renewals", "count"},
	{"cluster.redispatches", "count"},
	{"cluster.late_results", "count"},
	{"cluster.grants_per_job", "ratio"},
	{"dsl.parse_ms", "ms"},
	{"verify.facade_ms", "ms"},
	{"verify.unattributed_ms", "ms"},
	{"verify.unattributed_frac", "ratio"},
	{"verify.known_alarms", "count"},
	{"rcg.ms", "ms"},
	{"ltg.ms", "ms"},
	{"ltg.confirm_ms", "ms"},
	{"ltg.memo_hit_rate", "ratio"},
	{"invariant.analyze_ms", "ms"},
	{"invariant.recheck_ms", "ms"},
	{"invariant.proved_frac", "ratio"},
	{"explicit.ms", "ms"},
	{"explicit.states", "count"},
	{"explicit.allocs_per_state", "ratio"},
	{"explicit.peak_table_bytes", "bytes"},
	{"synthesis.ms", "ms"},
	{"synthesis.evaluated", "count"},
	{"synthesis.pruned", "count"},
	{"synthesis.memo_hit_rate", "ratio"},
	{"runtime.alloc_mb_per_verdict", "MB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"host.ref_ms", "ms"},
	{"host.ref_spread", "ratio"},
	{"raw.setup_s", "s"},
	{"raw.latency_p50_ms", "ms"},
	{"raw.verdicts_per_s", "1/s"},
	{"latency_p99_ms", "ms"},
	{"loadgen.offered_rps", "1/s"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.warmup_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"failed_frac", "ratio"},
	{"wrong_verdicts", "count"},
}

var workloads = []string{"serve-light", "fleet-cluster", "design-heavy"}

// runCfg is one run's settings.
type runCfg struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	OutDir   string
	Ref      *refProc
}

// runOut is what a workload measured.
type runOut struct {
	Attempted int
	Failed    int
	Wrong     int
	Alarms    int
	// Metrics holds every metric computed, end-to-end and per-layer.
	Metrics map[string]float64
	// InputDigest identifies the generated inputs.
	InputDigest string
	// TaskMS lists design-heavy's per-task medians.
	TaskMS []taskTime
	tracer *tracer
}

func newRunOut() *runOut {
	return &runOut{Metrics: map[string]float64{}}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 15, "measured seconds")
		traceOn  = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		refPath  = flag.String("ref", filepath.Join(".bench_build", "refkernel"), "reference kernel binary")
		outDir   = flag.String("out", filepath.Join(".bench_build", "e2ebench"), "directory for run records and traces")
		repeat   = flag.Int("repeat", 0, "run the workload this many times with seeds seed, seed+1, ... and print each metric's median, quartiles and spread")
		record   = flag.String("record", "", "regenerate the committed answers into this file and exit")
	)
	flag.Parse()
	if *record != "" {
		if err := recordAnswers(*record); err != nil {
			fatal(err)
		}
		return
	}
	if !validWorkload(*workload) {
		fatal(fmt.Errorf("unknown --workload %q (want one of %s)", *workload, strings.Join(workloads, ", ")))
	}
	if *repeat > 0 {
		if err := repeatRuns(*workload, *seed, *seconds, *traceOn == 1, *repeat, *refPath, *outDir); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	ref, err := startRef(*refPath)
	if err != nil {
		fatal(err)
	}
	cfg := runCfg{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traceOn == 1, OutDir: *outDir, Ref: ref}
	out, err := run(cfg)
	ref.Close()
	if err != nil {
		fatal(err)
	}
	if err := writeRecord(cfg, out, ref.samples); err != nil {
		fatal(err)
	}
	printResult(cfg, out)
}

// notApplicable records metrics a workload has no work for as zero, so a
// traced run prints every declared metric and a missing one is a bug.
func notApplicable(m map[string]float64, names ...string) {
	for _, n := range names {
		m[n] = 0
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

func validWorkload(w string) bool {
	for _, x := range workloads {
		if x == w {
			return true
		}
	}
	return false
}

func run(cfg runCfg) (*runOut, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	var out *runOut
	switch cfg.Workload {
	case "serve-light":
		out, err = runServe(cfg, exp)
	case "fleet-cluster":
		out, err = runFleet(cfg, exp)
	default:
		out, err = runDesign(cfg, exp)
	}
	if err != nil {
		return nil, err
	}
	refs := cfg.Ref.samples
	out.Metrics["host.ref_ms"] = median(refs)
	if m := median(refs); m > 0 {
		out.Metrics["host.ref_spread"] = (maxOf(refs) - minOf(refs)) / m
	}
	out.Metrics["failed_frac"] = ratio(float64(out.Failed), float64(out.Attempted))
	out.Metrics["wrong_verdicts"] = float64(out.Wrong)
	out.Metrics["verify.known_alarms"] = float64(out.Alarms)
	return out, nil
}

// printResult prints the result line.
func printResult(cfg runCfg, out *runOut) {
	line, err := resultLine(cfg.Trace, out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// resultLine renders the result: the end-to-end metrics, or with --trace 1
// the per-layer ones, each with its declared unit.
func resultLine(trace bool, out *runOut) ([]byte, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	for _, d := range defs {
		metrics[d.Name] = val{Value: out.Metrics[d.Name], Unit: d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{out.Wrong == 0, out.Attempted, out.Failed, metrics})
}

// taskTime is one design-heavy task's median time per call over the
// passes, normalized and raw.
type taskTime struct {
	Task   string  `json:"task"`
	NormMS float64 `json:"norm_ms"`
	RawMS  float64 `json:"raw_ms"`
}

// runRecord is the file each run leaves in the output directory: the
// environment, the inputs' digest, the reference series and every metric.
type runRecord struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	NumCPU      int                `json:"num_cpu"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	CPUModel    string             `json:"cpu_model"`
	GoVersion   string             `json:"go_version"`
	InputDigest string             `json:"input_digest"`
	RefMS       []float64          `json:"host_ref_ms"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Wrong       int                `json:"wrong_verdicts"`
	Metrics     map[string]float64 `json:"metrics"`
	TaskMS      []taskTime         `json:"task_ms,omitempty"`
}

func recordPath(dir, workload string, seed int64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(dir, fmt.Sprintf("run-%s-seed%d-trace%d.json", workload, seed, t))
}

func writeRecord(cfg runCfg, out *runOut, refs []float64) error {
	rec := runRecord{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(),
		GoVersion: runtime.Version(), InputDigest: out.InputDigest, RefMS: refs,
		Attempted: out.Attempted, Failed: out.Failed, Wrong: out.Wrong, Metrics: out.Metrics,
		TaskMS: out.TaskMS,
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(recordPath(cfg.OutDir, cfg.Workload, cfg.Seed, cfg.Trace), b, 0o644); err != nil {
		return err
	}
	if out.tracer != nil {
		return out.tracer.write(filepath.Join(cfg.OutDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.Workload, cfg.Seed)))
	}
	return nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// digestOf hashes a sequence of input strings.
func digestOf(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s;", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// setupRounds is how many fresh set-ups a run makes; setup_s is their
// median.
const setupRounds = 5

// setups runs fn n times as fresh set-ups, each timed as one unit of a
// pacer, and returns the median normalized and raw times in seconds. fn
// returns a closer for what it set up; all but the last are closed before
// the next set-up starts, and the last is returned live.
func setups(ref *refProc, n int, fn func() (func(), error)) (norm, raw float64, keep func(), err error) {
	pc, err := newPacer(ref.Sample, 0)
	if err != nil {
		return 0, 0, nil, err
	}
	var units []*unit
	for i := 0; i < n; i++ {
		if keep != nil {
			keep()
			keep = nil
		}
		runtime.GC()
		t0 := time.Now()
		closer, err := fn()
		if err != nil {
			return 0, 0, nil, err
		}
		u := &unit{rawMS: sinceMS(t0)}
		keep = closer
		units = append(units, u)
		if err := pc.Add(u); err != nil {
			keep()
			return 0, 0, nil, err
		}
	}
	if err := pc.Finish(); err != nil {
		keep()
		return 0, 0, nil, err
	}
	var norms, raws []float64
	for _, u := range units {
		norms = append(norms, u.normMS/1000)
		raws = append(raws, u.rawMS/1000)
	}
	return median(norms), median(raws), keep, nil
}

// repeatRuns is the steadiness proof: it runs the workload n times as
// child processes with consecutive seeds and prints, for every metric, the
// median, the quartiles and the spread (Q3-Q1)/median.
func repeatRuns(workload string, seed int64, seconds float64, trace bool, n int, refPath, outDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string][]float64{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		tr := "0"
		if trace {
			tr = "1"
		}
		args := []string{"--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", tr, "--ref", refPath, "--out", outDir}
		if err := runChild(exe, args); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		b, err := os.ReadFile(recordPath(outDir, workload, s, trace))
		if err != nil {
			return err
		}
		var rec runRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return err
		}
		for k, v := range rec.Metrics {
			vals[k] = append(vals[k], v)
		}
		fmt.Fprintf(os.Stderr, "seed %d done: digest %s, ref %.1f ms (%d samples)\n", s, rec.InputDigest, median(rec.RefMS), len(rec.RefMS))
	}
	spread := func(k string) (m, q1, q3, s float64) {
		q1, q3 = quartiles(vals[k])
		m = median(vals[k])
		return m, q1, q3, ratio(q3-q1, m)
	}
	// End-to-end metrics first, each beside its un-normalized twin.
	fmt.Printf("%-24s %12s %12s %12s %8s %14s %8s\n", "metric", "median", "q1", "q3", "spread", "raw median", "raw spr")
	shown := map[string]bool{}
	for _, d := range endToEnd {
		m, q1, q3, s := spread(d.Name)
		fmt.Printf("%-24s %12.4f %12.4f %12.4f %8.4f", d.Name, m, q1, q3, s)
		if _, ok := vals["raw."+d.Name]; ok {
			rm, _, _, rs := spread("raw." + d.Name)
			fmt.Printf(" %14.4f %8.4f", rm, rs)
			shown["raw."+d.Name] = true
		}
		fmt.Println()
		shown[d.Name] = true
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		if !shown[k] {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	fmt.Println()
	for _, k := range names {
		m, q1, q3, s := spread(k)
		fmt.Printf("%-32s %12.4f %12.4f %12.4f %8.4f\n", k, m, q1, q3, s)
	}
	return nil
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
