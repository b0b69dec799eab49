package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"paramring/internal/corpus"
	"paramring/internal/explicit"
	"paramring/internal/graph"
	"paramring/internal/invariant"
	"paramring/internal/ltg"
	"paramring/internal/rcg"
	"paramring/internal/verify"
)

// span is one timed call into a layer. Spans of one job share Job; Parent
// is the index of the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, job, parent int) int {
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) float64 {
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	return float64(s.End-s.Start) / 1e6
}

// add records a span whose times were measured elsewhere (service spans
// taken from job timestamps).
func (t *tracer) add(name string, job, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// selfTimes returns each span name's total and self time in milliseconds:
// a span's self time is its duration minus its children's.
func (t *tracer) selfTimes() (total, self map[string]float64, count map[string]int) {
	total, self, count = map[string]float64{}, map[string]float64{}, map[string]int{}
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += float64(s.End-s.Start) / 1e6
		}
	}
	for i, s := range t.spans {
		d := float64(s.End-s.Start) / 1e6
		total[s.Name] += d
		self[s.Name] += d - child[i]
		count[s.Name]++
	}
	return total, self, count
}

// write saves the spans and prints the self-time table to stderr.
func (t *tracer) write(path string) error {
	total, self, count := t.selfTimes()
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(os.Stderr, "%-24s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-24s %8d %12.2f %12.2f\n", n, count[n], total[n], self[n])
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// overheadFrac estimates the share of a traced phase spent recording
// spans: the cost of one begin/end pair, measured here, times the number
// of spans, over the phase's wall time.
func (t *tracer) overheadFrac(wallMS float64) float64 {
	probe := &tracer{t0: t.t0, spans: make([]span, 0, 4096)}
	t0 := time.Now()
	for i := 0; i < 4096; i++ {
		probe.end(probe.begin("probe", i, -1))
	}
	perSpan := sinceMS(t0) / 4096
	return ratio(perSpan*float64(len(t.spans)), wallMS)
}

// replayJob is one engine job re-run lane by lane after the load.
type replayJob struct {
	Source string
	Opts   verify.Options
}

// laneAcc accumulates the replay's per-layer work.
type laneAcc struct {
	jobs                    int
	parseMS, facadeMS       float64
	rcgMS, ltgMS, confirmMS float64
	analyzeMS, recheckMS    float64
	invRuns, invProved      int
	explicitMS              float64
	states, mallocs         uint64
	peakTable               uint64
	facadeMemos, laneMemos  *corpus.FamilyMemos
}

func newLaneAcc() *laneAcc {
	return &laneAcc{facadeMemos: corpus.NewFamilyMemos(0), laneMemos: corpus.NewFamilyMemos(0)}
}

// replay times one job: the DSL front end, verify.CheckCtx as a whole (the
// parent), then each lane in CheckCtx's order. Both the facade call and the
// lanes get family memos of their own, used the way the service uses its
// one, so neither warms the other.
func (a *laneAcc) replay(tr *tracer, job int, j replayJob) error {
	ctx := context.Background()
	root := tr.begin("replay", job, -1)
	defer tr.end(root)

	id := tr.begin("dsl.compile", job, root)
	cs, _, err := verify.NewSpecCache(1).Compile(j.Source)
	a.parseMS += tr.end(id)
	if err != nil {
		return err
	}
	p := cs.Protocol
	opts := j.Opts
	if opts.ConfirmMaxK <= 0 {
		opts.ConfirmMaxK = 7
	}

	fo := opts
	fo.Check = a.facadeMemos.CheckOptions(p, opts.Check)
	id = tr.begin("verify.facade", job, root)
	rep, err := verify.CheckCtx(ctx, p, fo)
	a.facadeMS += tr.end(id)
	if err != nil {
		return err
	}
	a.jobs++

	lanes := tr.begin("verify.lanes", job, root)
	defer tr.end(lanes)
	id = tr.begin("rcg", job, lanes)
	if _, err := rcg.Build(p.Compile()).CheckDeadlockFreedom(256); err != nil && !isCycleLimit(err) {
		return err
	}
	a.rcgMS += tr.end(id)

	lo := opts
	lo.Check = a.laneMemos.CheckOptions(p, opts.Check)
	id = tr.begin("ltg", job, lanes)
	ll, lerr := ltg.CheckLivelockFreedom(p, lo.Check)
	a.ltgMS += tr.end(id)
	if lerr == nil && ll.Verdict == ltg.VerdictPotentialLivelock {
		id = tr.begin("ltg.confirm", job, lanes)
		_, err := ltg.ConfirmWitness(p, ll.Witness, opts.ConfirmMaxK)
		a.confirmMS += tr.end(id)
		if err != nil {
			return err
		}
	}

	if opts.Invariant {
		id = tr.begin("invariant.analyze", job, lanes)
		irep, err := invariant.Analyze(ctx, p, invariant.Options{MaxLocalStates: opts.InvariantMaxStates})
		a.analyzeMS += tr.end(id)
		if err == nil {
			a.invRuns++
			if irep.Livelock == invariant.Holds {
				a.invProved++
			}
			if irep.Certificate != nil {
				id = tr.begin("invariant.recheck", job, lanes)
				_ = invariant.CheckCertificate(p, irep.Certificate)
				a.recheckMS += tr.end(id)
			}
		}
	}

	if opts.CrossValidateMaxK > 1 {
		searchLivelock := rep.Livelock == verify.Proved || rep.InvariantLivelock == verify.Proved
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		id = tr.begin("explicit", job, lanes)
		for k := 2; k <= opts.CrossValidateMaxK; k++ {
			in, err := explicit.NewInstanceCtx(ctx, p, k, explicit.WithWorkers(max(opts.Workers, 1)))
			if err != nil {
				return err
			}
			a.states += in.NumStates()
			a.peakTable = max(a.peakTable, in.TableBytes())
			_ = in.IllegitimateDeadlocks()
			if searchLivelock {
				if _, err := in.FindLivelockCtx(ctx); err != nil {
					return err
				}
			}
		}
		a.explicitMS += tr.end(id)
		runtime.ReadMemStats(&ms1)
		a.mallocs += ms1.Mallocs - ms0.Mallocs
	}
	return nil
}

// metrics fills the engine layers' per-layer metrics: times are means per
// replayed verification.
func (a *laneAcc) metrics(m map[string]float64) {
	n := float64(a.jobs)
	lanes := a.rcgMS + a.ltgMS + a.confirmMS + a.analyzeMS + a.recheckMS + a.explicitMS
	m["dsl.parse_ms"] = ratio(a.parseMS, n)
	m["verify.facade_ms"] = ratio(a.facadeMS, n)
	m["verify.unattributed_ms"] = ratio(a.facadeMS-lanes, n)
	m["verify.unattributed_frac"] = ratio(a.facadeMS-lanes, a.facadeMS)
	m["rcg.ms"] = ratio(a.rcgMS, n)
	m["ltg.ms"] = ratio(a.ltgMS, n)
	m["ltg.confirm_ms"] = ratio(a.confirmMS, n)
	hits, misses := a.laneMemos.Stats()
	m["ltg.memo_hit_rate"] = ratio(float64(hits), float64(hits+misses))
	m["invariant.analyze_ms"] = ratio(a.analyzeMS, n)
	m["invariant.recheck_ms"] = ratio(a.recheckMS, n)
	m["invariant.proved_frac"] = ratio(float64(a.invProved), float64(a.invRuns))
	m["explicit.ms"] = ratio(a.explicitMS, n)
	m["explicit.states"] = float64(a.states)
	m["explicit.allocs_per_state"] = ratio(float64(a.mallocs), float64(a.states))
	m["explicit.peak_table_bytes"] = float64(a.peakTable)
}

// replayAll replays jobs until they run out or the time budget is spent.
func replayAll(tr *tracer, jobs []replayJob, budget time.Duration, m map[string]float64) error {
	a := newLaneAcc()
	deadline := time.Now().Add(budget)
	for i, j := range jobs {
		if time.Now().After(deadline) {
			break
		}
		if err := a.replay(tr, i, j); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	a.metrics(m)
	return nil
}

// runtimeSample is a snapshot of the allocation and GC CPU counters.
type runtimeSample struct {
	totalAlloc    uint64
	gcCPU, allCPU float64
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeSample{totalAlloc: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

// runtimeMetrics fills the runtime layer from two snapshots around the load.
func runtimeMetrics(m map[string]float64, a, b runtimeSample, verdicts int) {
	m["runtime.alloc_mb_per_verdict"] = ratio(float64(b.totalAlloc-a.totalAlloc)/(1<<20), float64(verdicts))
	m["runtime.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU)
}

func isCycleLimit(err error) bool { return errors.Is(err, graph.ErrCycleLimit) }

// runChild runs the benchmark binary as a child and waits for it.
func runChild(exe string, args []string) error {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	return cmd.Run()
}
