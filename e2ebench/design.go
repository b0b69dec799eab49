package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"paramring/internal/core"
	"paramring/internal/dsl"
	"paramring/internal/synthesis"
	"paramring/internal/verify"
)

// design-heavy draws, per seed, half of each cost-ranked pool: one member
// from each stratum of two neighbours in cost rank.
const (
	designStratum = 2
	// designTop is how many of the most expensive 64-local-state specs
	// every seed runs: at the top of the cost rank neighbours differ by
	// half, so drawing among them moved the whole workload's figures.
	designTop = 2
	// designPassSeconds is a pass's nominal length, reference samples
	// included; a run makes --seconds / designPassSeconds passes, at
	// least designMinPasses, so every run takes each task's median over
	// the same number of passes whatever the host's speed.
	designPassSeconds = 6
	designMinPasses   = 2
	// designUnitMS is the least raw time of one task's unit in a pass: a
	// shorter call is repeated until the unit is this long, and the unit's
	// time per call is what the pass records. A single sub-millisecond
	// call is timed mostly by whether a GC cycle overlapped it.
	designUnitMS = 40
	// designMaxReps bounds the repetitions of one unit.
	designMaxReps = 64
)

// designTask is one library call of design-heavy with its committed answer.
type designTask struct {
	Name  string
	Synth bool
	Proto *core.Protocol
	Src   string
	Opts  verify.Options
	Want  string
}

// run makes the task's call and reports whether the answer matched, and
// whether it carried the known alarm.
func (t designTask) run(stats *synthesis.SearchStats) (ok, alarm bool, err error) {
	if t.Synth {
		res, serr := synthesis.Synthesize(t.Proto, synthesis.Options{Workers: 1})
		got, err := synthOutcome(res, serr)
		if err != nil {
			return false, false, err
		}
		if res != nil && stats != nil {
			*stats = res.Stats
		}
		return got == t.Want, false, nil
	}
	rep, err := verify.CheckCtx(context.Background(), t.Proto, t.Opts)
	if err != nil {
		return false, false, err
	}
	ok, alarm = check(t.Want, verdictOfReport(rep))
	return ok, alarm, nil
}

// stratified ranks names by their recorded cost under prefix, keeps the top
// most expensive, and draws one from each of n equal strata of the rest, so
// every seed gets the same cost mix.
func stratified(rng *rand.Rand, names []string, cost map[string]float64, prefix string, top, n int) []string {
	s := append([]string(nil), names...)
	c := func(name string) float64 { return cost[prefix+"/"+name] }
	sort.Slice(s, func(i, j int) bool {
		if c(s[i]) != c(s[j]) {
			return c(s[i]) < c(s[j])
		}
		return s[i] < s[j]
	})
	out := append([]string(nil), s[len(s)-top:]...)
	s = s[:len(s)-top]
	for k := 0; k < n; k++ {
		lo, hi := k*len(s)/n, (k+1)*len(s)/n
		out = append(out, s[lo+rng.Intn(hi-lo)])
	}
	return out
}

// designTasks builds the seed's task list: the paper's synthesis bases,
// stratified random synthesis bases, the zoo under all lanes and under
// theorem+explicit at K <= 8, and stratified 64-local-state specs under
// both option sets.
func designTasks(seed int64, exp *expectedFile) ([]designTask, error) {
	rng := rand.New(rand.NewSource(seed))
	var tasks []designTask
	for _, b := range paperBases {
		tasks = append(tasks, designTask{Name: "synth/" + b.Name, Synth: true, Proto: b.Base(), Want: exp.Synth[b.Name]})
	}
	for _, def := range []poolDef{synthLightPool, synthHeavyPool} {
		specs, _, err := genPool(def)
		if err != nil {
			return nil, err
		}
		src := map[string]string{}
		var names []string
		for _, s := range specs {
			if _, ok := exp.Synth[s.Name]; ok {
				names = append(names, s.Name)
				src[s.Name] = s.Source
			}
		}
		for _, name := range stratified(rng, names, exp.CostMS, "synth", 0, len(names)/designStratum) {
			p, err := dsl.Parse(src[name])
			if err != nil {
				return nil, err
			}
			tasks = append(tasks, designTask{Name: "synth/" + name, Synth: true, Proto: p, Want: exp.Synth[name]})
		}
	}
	zoo, err := loadZoo()
	if err != nil {
		return nil, err
	}
	for _, z := range zoo {
		if exp.ZooDigests[z.Name] != z.Digest {
			return nil, fmt.Errorf("specs/%s.gc changed (digest %s, expected.json has %s)", z.Name, z.Digest, exp.ZooDigests[z.Name])
		}
		p, err := dsl.Parse(z.Source)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks,
			designTask{Name: "all/" + z.Name, Proto: p, Src: z.Source, Opts: allLaneOpts, Want: exp.Zoo[z.Name+"/all"]},
			designTask{Name: "x8/" + z.Name, Proto: p, Src: z.Source, Opts: theoremX8Opt, Want: exp.Zoo[z.Name+"/x8"]})
	}
	specs, codes, err := exp.poolAnswers("dv", wideSpecPool)
	if err != nil {
		return nil, err
	}
	_, codes8, err := exp.poolAnswers("dv8", wideSpecPool)
	if err != nil {
		return nil, err
	}
	idx := map[string]int{}
	var names []string
	for i, s := range specs {
		idx[s.Name] = i
		names = append(names, s.Name)
	}
	for _, lanes := range []struct {
		pool, prefix string
		opts         verify.Options
		codes        []string
	}{{"dv", "all/", allLaneOpts, codes}, {"dv8", "x8/", theoremX8Opt, codes8}} {
		for _, name := range stratified(rng, names, exp.CostMS, lanes.pool, designTop, (len(names)-designTop)/designStratum) {
			i := idx[name]
			p, err := dsl.Parse(specs[i].Source)
			if err != nil {
				return nil, err
			}
			tasks = append(tasks, designTask{Name: lanes.prefix + name, Proto: p, Src: specs[i].Source, Opts: lanes.opts, Want: lanes.codes[i]})
		}
	}
	return tasks, nil
}

// passOrder is pass's seeded task order.
func passOrder(seed int64, pass, n int) []int {
	return rand.New(rand.NewSource(seed*1009 + int64(pass))).Perm(n)
}

func runDesign(cfg runCfg, exp *expectedFile) (*runOut, error) {
	out := newRunOut()
	// Library calls only: no service, no cluster, no load generator.
	notApplicable(out.Metrics, "service.http_ms", "service.queue_wait_ms", "service.run_ms", "service.compile_ms",
		"service.spec_cache_hit_rate", "service.result_cache_hit_rate", "service.rejected", "service.retries",
		"cluster.leases_granted", "cluster.lease_renewals", "cluster.redispatches", "cluster.late_results",
		"cluster.grants_per_job", "loadgen.offered_rps", "loadgen.late_p99_ms", "loadgen.warmup_s")
	var tasks []designTask
	setupNorm, setupRaw, closer, err := setups(cfg.Ref, setupRounds, func() (func(), error) {
		var err error
		tasks, err = designTasks(cfg.Seed, exp)
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	defer closer()
	out.Metrics["setup_s"] = setupNorm
	out.Metrics["raw.setup_s"] = setupRaw
	var parts []string
	for pass := 0; pass < 4; pass++ {
		for _, i := range passOrder(cfg.Seed, pass, len(tasks)) {
			parts = append(parts, tasks[i].Name, tasks[i].Src, tasks[i].Want)
		}
	}
	out.InputDigest = digestOf(parts)

	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	rt0 := sampleRuntime()
	pc, err := newPacer(cfg.Ref.Sample, chunkMS)
	if err != nil {
		return nil, err
	}
	// perTask holds each task's units; a unit's time covers reps calls.
	type taskUnit struct {
		u    *unit
		reps int
	}
	perTask := make([][]taskUnit, len(tasks))
	var synthMS, evaluated, pruned, memoHits, memoAll float64
	synthCalls, verdicts := 0, 0
	passes := max(designMinPasses, int(cfg.Seconds/designPassSeconds))
	for pass := 0; pass < passes; pass++ {
		for _, i := range passOrder(cfg.Seed, pass, len(tasks)) {
			t := tasks[i]
			var st synthesis.SearchStats
			reps := 0
			name := "verify.facade"
			if t.Synth {
				name = "synthesis"
			}
			sp := -1
			if tr != nil {
				sp = tr.begin(name, len(tr.spans), -1)
			}
			t0 := time.Now()
			for reps == 0 || (sinceMS(t0) < designUnitMS && reps < designMaxReps) {
				ok, alarm, err := t.run(&st)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", t.Name, err)
				}
				reps++
				out.Attempted++
				verdicts++
				if !ok {
					out.Wrong++
					fmt.Fprintf(os.Stderr, "wrong answer: %s\n", t.Name)
				}
				if alarm {
					out.Alarms++
				}
				if t.Synth {
					synthCalls++
					evaluated += float64(st.Evaluated)
					pruned += float64(st.PrunedAssignments)
					memoHits += float64(st.MemoHits)
					memoAll += float64(st.MemoHits + st.MemoMisses)
				}
			}
			total := sinceMS(t0)
			if tr != nil {
				tr.end(sp)
			}
			if t.Synth {
				synthMS += total
			}
			u := &unit{rawMS: total}
			perTask[i] = append(perTask[i], taskUnit{u, reps})
			if err := pc.Add(u); err != nil {
				return nil, err
			}
		}
		if pass == designMinPasses-1 {
			// A fixed amount of work: later passes depend on the host.
			out.Metrics["peak_rss_mb"] = peakRSSMB()
		}
	}
	if err := pc.Finish(); err != nil {
		return nil, err
	}
	runtimeMetrics(out.Metrics, rt0, sampleRuntime(), verdicts)

	var med, rawMed []float64
	for _, us := range perTask {
		var n, r []float64
		for _, tu := range us {
			n = append(n, tu.u.normMS/float64(tu.reps))
			r = append(r, tu.u.rawMS/float64(tu.reps))
		}
		med = append(med, median(n))
		rawMed = append(rawMed, median(r))
	}
	out.Metrics["latency_p50_ms"] = median(med)
	out.Metrics["raw.latency_p50_ms"] = median(rawMed)
	out.Metrics["latency_p99_ms"] = quantile(med, 0.99)
	out.Metrics["verdicts_per_s"] = ratio(float64(len(tasks)), sum(med)/1000)
	for i, t := range tasks {
		out.TaskMS = append(out.TaskMS, taskTime{t.Name, med[i], rawMed[i]})
	}
	out.Metrics["raw.verdicts_per_s"] = ratio(float64(len(tasks)), sum(rawMed)/1000)
	out.Metrics["synthesis.ms"] = ratio(synthMS, float64(synthCalls))
	out.Metrics["synthesis.evaluated"] = ratio(evaluated, float64(synthCalls))
	out.Metrics["synthesis.pruned"] = ratio(pruned, float64(synthCalls))
	out.Metrics["synthesis.memo_hit_rate"] = ratio(memoHits, memoAll)

	if cfg.Trace {
		var replay []replayJob
		for _, t := range tasks {
			if !t.Synth {
				replay = append(replay, replayJob{Source: t.Src, Opts: t.Opts})
			}
		}
		if err := replayAll(tr, replay, 30*time.Second, out.Metrics); err != nil {
			return nil, err
		}
		out.Metrics["trace.overhead_frac"] = tr.overheadFrac(sinceMS(tr.t0))
		out.tracer = tr
	}
	return out, nil
}
