package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"paramring/internal/service"
)

// fleet-cluster settings.
const (
	fleetWorkers = 3
	// chunkMS is the least raw work between two reference samples in the
	// closed-loop workloads.
	chunkMS = 300
	// fleetWarmBatches run before timing starts.
	fleetWarmBatches = 4
	// fleetRSSBatches is the fixed amount of work after which the peak
	// RSS is read (or the end of the run, if it comes first), so the
	// figure does not grow with how fast the host ran.
	fleetRSSBatches = 128
)

// fleetBatches yields fleet-cluster's batches: pool families in a seeded
// order, each family's 64 members renamed on every pass through the pool.
type fleetBatches struct {
	fams  [][]poolSpec
	codes [][]string
	order []int
	next  int
}

func newFleetBatches(seed int64, specs []poolSpec, codes []string) *fleetBatches {
	b := &fleetBatches{}
	index := map[string]int{}
	for i, s := range specs {
		f, ok := index[s.Family]
		if !ok {
			f = len(b.fams)
			index[s.Family] = f
			b.fams = append(b.fams, nil)
			b.codes = append(b.codes, nil)
		}
		b.fams[f] = append(b.fams[f], s)
		b.codes[f] = append(b.codes[f], codes[i])
	}
	b.order = rand.New(rand.NewSource(seed)).Perm(len(b.fams))
	return b
}

// Next returns the next batch's sources and committed codes.
func (b *fleetBatches) Next() ([]string, []string) {
	f := b.order[b.next%len(b.order)]
	pass := b.next / len(b.order)
	b.next++
	srcs := make([]string, len(b.fams[f]))
	for i, s := range b.fams[f] {
		srcs[i] = s.Source
		if pass > 0 {
			srcs[i] = rename(s.Source, s.Name, fmt.Sprintf("%s-r%d", s.Name, pass))
		}
	}
	return srcs, b.codes[f]
}

// batch posts one batch and waits for all its verdicts.
func (n *serveNode) batch(srcs []string) (service.BatchView, error) {
	body, err := json.Marshal(service.BatchRequest{Specs: srcs, Wait: true,
		Options: service.RequestOptions{CrossValidateMaxK: xvalOpts.CrossValidateMaxK}})
	if err != nil {
		return service.BatchView{}, err
	}
	resp, err := n.conns[0].Post(n.url+"/v1/verify/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return service.BatchView{}, err
	}
	defer resp.Body.Close()
	var v service.BatchView
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("batch: HTTP %d", resp.StatusCode)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

func runFleet(cfg runCfg, exp *expectedFile) (*runOut, error) {
	out := newRunOut()
	notApplicable(out.Metrics, "synthesis.ms", "synthesis.evaluated", "synthesis.pruned", "synthesis.memo_hit_rate",
		"loadgen.late_p99_ms")
	var node *serveNode
	var batches *fleetBatches
	setupNorm, setupRaw, closer, err := setups(cfg.Ref, setupRounds, func() (func(), error) {
		specs, codes, err := exp.poolAnswers(fleetPool.Name, fleetPool)
		if err != nil {
			return nil, err
		}
		batches = newFleetBatches(cfg.Seed, specs, codes)
		n, err := startServeNode(service.Config{Log: quietLog(),
			Cluster: &service.ClusterConfig{LocalWorkers: fleetWorkers}}, 1)
		if err != nil {
			return nil, err
		}
		for deadline := time.Now().Add(10 * time.Second); n.svc.Stats().ClusterWorkers < fleetWorkers; {
			if time.Now().After(deadline) {
				n.Close()
				return nil, fmt.Errorf("fleet-cluster: %d of %d workers joined", n.svc.Stats().ClusterWorkers, fleetWorkers)
			}
			time.Sleep(time.Millisecond)
		}
		node = n
		return n.Close, nil
	})
	if err != nil {
		return nil, err
	}
	defer closer()
	out.Metrics["setup_s"] = setupNorm
	out.Metrics["raw.setup_s"] = setupRaw
	out.InputDigest = fleetDigest(cfg.Seed, batches)

	t0 := time.Now()
	for i := 0; i < fleetWarmBatches; i++ {
		srcs, codes := batches.Next()
		view, err := node.batch(srcs)
		if err != nil {
			return nil, err
		}
		checkBatch(out, view, codes)
	}
	out.Metrics["loadgen.warmup_s"] = time.Since(t0).Seconds()

	m0 := snapshotMetrics(node.svc.Metrics())
	rt0 := sampleRuntime()
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	pc, err := newPacer(cfg.Ref.Sample, chunkMS)
	if err != nil {
		return nil, err
	}
	var units []*unit
	var replay []replayJob
	var httpMS, queueMS, runMS, compile []float64
	verdicts, sent := 0, 0
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		srcs, codes := batches.Next()
		submit := time.Now()
		view, err := node.batch(srcs)
		wall := sinceMS(submit)
		if err != nil {
			return nil, err
		}
		u := &unit{rawMS: wall}
		sent += len(srcs)
		for _, it := range checkBatch(out, view, codes) {
			verdicts++
			j, ok := node.svc.Job(it.JobID)
			if !ok {
				return nil, fmt.Errorf("fleet-cluster: job %s not retained", it.JobID)
			}
			jv := node.svc.Snapshot(j)
			created, _ := time.Parse(time.RFC3339Nano, jv.CreatedAt)
			finished, _ := time.Parse(time.RFC3339Nano, jv.FinishedAt)
			u.extra = append(u.extra, float64(finished.Sub(submit).Nanoseconds())/1e6)
			httpMS = append(httpMS, wall-float64(finished.Sub(created).Nanoseconds())/1e6)
			if jv.CompileNS > 0 {
				compile = append(compile, float64(jv.CompileNS)/1e6)
			}
			root := -1
			if tr != nil {
				root = tr.add("client", len(tr.spans), -1, submit, submit.Add(time.Duration(wall*1e6)))
			}
			if !jv.Cached && jv.StartedAt != "" {
				started, _ := time.Parse(time.RFC3339Nano, jv.StartedAt)
				if tr != nil {
					tr.add("service.queue_wait", root, root, created, started)
					tr.add("service.run", root, root, started, finished)
				}
				queueMS = append(queueMS, float64(started.Sub(created).Nanoseconds())/1e6)
				runMS = append(runMS, float64(finished.Sub(started).Nanoseconds())/1e6)
				replay = append(replay, replayJob{Source: srcs[it.Index], Opts: xvalOpts})
			}
		}
		units = append(units, u)
		if err := pc.Add(u); err != nil {
			return nil, err
		}
		if len(units) == fleetRSSBatches {
			out.Metrics["peak_rss_mb"] = peakRSSMB()
		}
	}
	if err := pc.Finish(); err != nil {
		return nil, err
	}
	if len(units) < fleetRSSBatches {
		out.Metrics["peak_rss_mb"] = peakRSSMB()
	}
	runtimeMetrics(out.Metrics, rt0, sampleRuntime(), verdicts)
	serviceMetrics(out.Metrics, m0, snapshotMetrics(node.svc.Metrics()))

	var lat, rawLat []float64
	var norm, raw float64
	for _, u := range units {
		lat = append(lat, u.normExtra...)
		rawLat = append(rawLat, u.extra...)
		norm += u.normMS
		raw += u.rawMS
	}
	out.Metrics["latency_p50_ms"] = median(lat)
	out.Metrics["raw.latency_p50_ms"] = median(rawLat)
	out.Metrics["latency_p99_ms"] = quantile(lat, 0.99)
	out.Metrics["verdicts_per_s"] = ratio(float64(verdicts), norm/1000)
	out.Metrics["raw.verdicts_per_s"] = ratio(float64(verdicts), raw/1000)
	out.Metrics["loadgen.offered_rps"] = ratio(float64(sent), raw/1000)
	out.Metrics["service.http_ms"] = median(httpMS)
	out.Metrics["service.queue_wait_ms"] = median(queueMS)
	out.Metrics["service.run_ms"] = median(runMS)
	out.Metrics["service.compile_ms"] = median(compile)

	if cfg.Trace {
		if err := replayAll(tr, replay, 8*time.Second, out.Metrics); err != nil {
			return nil, err
		}
		out.Metrics["trace.overhead_frac"] = tr.overheadFrac(sinceMS(tr.t0))
		out.tracer = tr
	}
	return out, nil
}

// checkBatch checks a batch's verdicts against their codes, counts them in
// out, and returns the items that carry a verdict.
func checkBatch(out *runOut, view service.BatchView, codes []string) []service.BatchItem {
	out.Attempted += len(codes)
	out.Failed += len(codes) - len(view.Items)
	var done []service.BatchItem
	for _, it := range view.Items {
		if it.State != service.StateDone || it.Result == nil {
			out.Failed++
			continue
		}
		good, alarm := check(codes[it.Index], verdictOfResult(it.Result))
		if !good {
			out.Wrong++
		}
		if alarm {
			out.Alarms++
		}
		done = append(done, it)
	}
	return done
}

// fleetDigest hashes the first 64 batches of a fresh batch sequence with
// the same seed.
func fleetDigest(seed int64, b *fleetBatches) string {
	f := &fleetBatches{fams: b.fams, codes: b.codes, order: rand.New(rand.NewSource(seed)).Perm(len(b.fams))}
	var parts []string
	for i := 0; i < 64; i++ {
		srcs, _ := f.Next()
		parts = append(parts, srcs...)
	}
	return digestOf(parts)
}
