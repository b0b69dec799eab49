package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"paramring/internal/service"
	"paramring/internal/verify"
)

// serve-light settings.
const (
	// serveRefRPS is the fixed reference rate of the latency phase, well
	// below the knee of a 2-CPU host (about 4000 verdicts/s): at 1000/s the
	// load generator's own scheduling stalls already widened the p50's
	// run-to-run spread.
	serveRefRPS = 300
	// serveWarmRPS drives the untimed warm-up that fills both caches.
	serveWarmRPS = 1000
	// serveLatencyShare is the share of the run spent at the reference
	// rate; the rest measures capacity.
	serveLatencyShare = 0.5
	// recentWindow is how far back a re-submission reaches: well inside
	// the result cache's 1024 entries, so verbatim re-submissions hit.
	recentWindow = 256
)

// Request kinds of the stream, in tenths: five first submissions, three
// verbatim re-submissions, two re-submissions under the other option set.
const (
	kindFirst = iota
	kindVerbatim
	kindOtherOpts
)

var kindBlock = [10]int{kindFirst, kindFirst, kindFirst, kindFirst, kindFirst,
	kindVerbatim, kindVerbatim, kindVerbatim, kindOtherOpts, kindOtherOpts}

// serveItem is one request of the stream with its committed answer.
type serveItem struct {
	Spec string
	XVal bool
	Code string
	Kind int
}

func (it serveItem) options() service.RequestOptions {
	if it.XVal {
		return service.RequestOptions{CrossValidateMaxK: xvalOpts.CrossValidateMaxK}
	}
	return service.RequestOptions{}
}

func (it serveItem) verifyOptions() verify.Options {
	if it.XVal {
		return xvalOpts
	}
	return verify.Options{Workers: 1}
}

// serveStream generates serve-light's seeded, stratified request stream.
// First submissions cycle through the four pool strata and alternate
// between the two option sets; each stratum's members are taken in a
// seeded order, renamed on every pass through the pool so that each first
// submission is new to the service.
type serveStream struct {
	rng    *rand.Rand
	specs  [][]poolSpec
	codes  [][]string
	perm   [][]int
	next   []int
	firsts int
	block  []int
	recent []serveItem
}

func newServeStream(seed int64, specs [][]poolSpec, codes [][]string) *serveStream {
	s := &serveStream{rng: rand.New(rand.NewSource(seed)), specs: specs, codes: codes}
	for _, sp := range specs {
		s.perm = append(s.perm, s.rng.Perm(len(sp)))
		s.next = append(s.next, 0)
	}
	return s
}

func (s *serveStream) Next() serveItem {
	if len(s.block) == 0 {
		s.block = append([]int(nil), kindBlock[:]...)
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	kind := s.block[0]
	s.block = s.block[1:]
	if kind != kindFirst && len(s.recent) > 0 {
		it := s.recent[s.rng.Intn(len(s.recent))]
		it.Kind = kind
		if kind == kindOtherOpts {
			it.XVal = !it.XVal
		}
		return it
	}
	st := s.firsts % len(s.specs)
	xval := (s.firsts/len(s.specs))%2 == 1
	s.firsts++
	n := s.next[st]
	s.next[st]++
	idx := s.perm[st][n%len(s.perm[st])]
	sp := s.specs[st][idx]
	src := sp.Source
	if pass := n / len(s.perm[st]); pass > 0 {
		src = rename(src, sp.Name, fmt.Sprintf("%s-r%d", sp.Name, pass))
	}
	it := serveItem{Spec: src, XVal: xval, Code: s.codes[st][idx], Kind: kindFirst}
	s.recent = append(s.recent, it)
	if len(s.recent) > recentWindow {
		s.recent = s.recent[1:]
	}
	return it
}

// serveSample is one finished request.
type serveSample struct {
	Item            serveItem
	Due, Sent, Done time.Time
	Status          int
	View            service.JobView
	Err             error
}

// serveNode is one single-node service on a loopback listener with the
// load generator's connections.
type serveNode struct {
	svc   *service.Service
	srv   *http.Server
	url   string
	conns []*http.Client
}

func startServeNode(cfg service.Config, conns int) (*serveNode, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(context.Background())
		return nil, err
	}
	n := &serveNode{svc: svc, srv: &http.Server{Handler: svc.Handler()}, url: "http://" + ln.Addr().String()}
	go func() { _ = n.srv.Serve(ln) }()
	for i := 0; i < conns; i++ {
		n.conns = append(n.conns, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	// The first request opens each connection.
	for _, c := range n.conns {
		resp, err := c.Get(n.url + "/healthz")
		if err != nil {
			n.Close()
			return nil, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return n, nil
}

func (n *serveNode) Close() {
	for _, c := range n.conns {
		c.CloseIdleConnections()
	}
	_ = n.srv.Close()
	_ = n.svc.Shutdown(context.Background())
}

// post sends one verification request and decodes the job view.
func (n *serveNode) post(c *http.Client, it serveItem) (int, service.JobView, error) {
	body, err := json.Marshal(service.Request{Spec: it.Spec, Options: it.options(), Wait: true})
	if err != nil {
		return 0, service.JobView{}, err
	}
	resp, err := c.Post(n.url+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, service.JobView{}, err
	}
	defer resp.Body.Close()
	var v service.JobView
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&v)
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, v, err
}

// openLoop sends the stream at a fixed rate for dur over the node's
// connections and returns every request it sent. Requests still queued a
// second after the schedule ends are dropped and counted as not sent.
func (n *serveNode) openLoop(stream *serveStream, rps float64, dur time.Duration) (sent []serveSample, dropped int) {
	type req struct {
		it  serveItem
		due time.Time
	}
	total := int(rps * dur.Seconds())
	// Sized for the whole schedule, so the generator never blocks and
	// its lateness is its own.
	queue := make(chan req, total)
	var mu sync.Mutex
	var wg sync.WaitGroup
	stopAt := time.Time{}
	var stopMu sync.Mutex
	for _, c := range n.conns {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for r := range queue {
				stopMu.Lock()
				cut := !stopAt.IsZero() && time.Now().After(stopAt)
				stopMu.Unlock()
				if cut {
					mu.Lock()
					dropped++
					mu.Unlock()
					continue
				}
				s := serveSample{Item: r.it, Due: r.due, Sent: time.Now()}
				s.Status, s.View, s.Err = n.post(c, r.it)
				s.Done = time.Now()
				mu.Lock()
				sent = append(sent, s)
				mu.Unlock()
			}
		}(c)
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rps)
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		queue <- req{it: stream.Next(), due: due}
	}
	close(queue)
	stopMu.Lock()
	stopAt = time.Now().Add(time.Second)
	stopMu.Unlock()
	wg.Wait()
	return sent, dropped
}

// closedLoop keeps every connection busy with back-to-back requests for
// dur and returns them; the due time of each is when it was taken.
func (n *serveNode) closedLoop(stream *serveStream, dur time.Duration) []serveSample {
	var mu sync.Mutex
	var out []serveSample
	var wg sync.WaitGroup
	end := time.Now().Add(dur)
	for _, c := range n.conns {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for time.Now().Before(end) {
				mu.Lock()
				it := stream.Next()
				mu.Unlock()
				s := serveSample{Item: it, Due: time.Now()}
				s.Sent = s.Due
				s.Status, s.View, s.Err = n.post(c, it)
				s.Done = time.Now()
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return out
}

// serveTally checks a phase's samples and adds them to the run totals.
type serveTally struct {
	out      *runOut
	tr       *tracer // nil in untraced runs
	lat      []float64
	late     []float64
	replay   []replayJob
	httpMS   []float64
	queueMS  []float64
	runMS    []float64
	compile  []float64
	verdicts int
}

func (t *serveTally) add(samples []serveSample, dropped int) (lat []float64, failed int) {
	return t.addPhase(samples, dropped, false)
}

// addPhase is add, keeping the per-request service figures and replay jobs
// when keep is set.
func (t *serveTally) addPhase(samples []serveSample, dropped int, keep bool) (lat []float64, failed int) {
	t.out.Attempted += len(samples) + dropped
	t.out.Failed += dropped
	failed = dropped
	for _, s := range samples {
		ok := s.Err == nil && s.Status == http.StatusOK && s.View.State == service.StateDone && s.View.Result != nil
		if !ok {
			t.out.Failed++
			failed++
			if s.Status == http.StatusServiceUnavailable {
				t.out.Metrics["service.rejected"]++
			}
			continue
		}
		good, alarm := check(s.Item.Code, verdictOfResult(s.View.Result))
		if !good {
			t.out.Wrong++
			if t.out.Wrong <= 3 {
				fmt.Fprintf(os.Stderr, "wrong verdict: want %s, got %s (%s)\n", s.Item.Code, verdictOfResult(s.View.Result).code(), s.View.Result.Summary)
			}
		}
		if alarm {
			t.out.Alarms++
		}
		t.verdicts++
		ms := float64(s.Done.Sub(s.Due).Nanoseconds()) / 1e6
		lat = append(lat, ms)
		if !keep {
			continue
		}
		t.late = append(t.late, float64(s.Sent.Sub(s.Due).Nanoseconds())/1e6)
		created, _ := time.Parse(time.RFC3339Nano, s.View.CreatedAt)
		finished, _ := time.Parse(time.RFC3339Nano, s.View.FinishedAt)
		client := float64(s.Done.Sub(s.Sent).Nanoseconds()) / 1e6
		t.httpMS = append(t.httpMS, client-float64(finished.Sub(created).Nanoseconds())/1e6)
		if s.View.CompileNS > 0 {
			t.compile = append(t.compile, float64(s.View.CompileNS)/1e6)
		}
		root := -1
		if t.tr != nil {
			root = t.tr.add("client", len(t.tr.spans), -1, s.Sent, s.Done)
		}
		if !s.View.Cached && s.View.StartedAt != "" {
			started, _ := time.Parse(time.RFC3339Nano, s.View.StartedAt)
			if t.tr != nil {
				t.tr.add("service.queue_wait", root, root, created, started)
				t.tr.add("service.run", root, root, started, finished)
			}
			t.queueMS = append(t.queueMS, float64(started.Sub(created).Nanoseconds())/1e6)
			t.runMS = append(t.runMS, float64(finished.Sub(started).Nanoseconds())/1e6)
			t.replay = append(t.replay, replayJob{Source: s.Item.Spec, Opts: s.Item.verifyOptions()})
		}
	}
	return lat, failed
}

func runServe(cfg runCfg, exp *expectedFile) (*runOut, error) {
	out := newRunOut()
	notApplicable(out.Metrics, "synthesis.ms", "synthesis.evaluated", "synthesis.pruned", "synthesis.memo_hit_rate")
	conns := runtime.NumCPU()
	var node *serveNode
	var stream *serveStream
	setupNorm, setupRaw, closer, err := setups(cfg.Ref, setupRounds, func() (func(), error) {
		var specs [][]poolSpec
		var codes [][]string
		for _, d := range servePools {
			s, c, err := exp.poolAnswers(d.Name, d)
			if err != nil {
				return nil, err
			}
			specs, codes = append(specs, s), append(codes, c)
		}
		stream = newServeStream(cfg.Seed, specs, codes)
		n, err := startServeNode(service.Config{Log: quietLog()}, conns)
		if err != nil {
			return nil, err
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
	out.InputDigest = serveDigest(cfg.Seed, stream)

	// Warm-up: fill the result and spec caches to their bounds. Its
	// verdicts are checked too, but not timed.
	warm := &serveTally{out: out}
	t0 := time.Now()
	for {
		warm.add(node.openLoop(stream, serveWarmRPS, 500*time.Millisecond))
		st := node.svc.Stats()
		if st.CacheEntries >= 1024 && st.SpecCache.Entries >= 1024 {
			break
		}
		if time.Since(t0) > 30*time.Second {
			return nil, fmt.Errorf("serve-light warm-up did not fill the caches: %+v", st)
		}
	}
	out.Metrics["loadgen.warmup_s"] = time.Since(t0).Seconds()

	tally := &serveTally{out: out}
	if cfg.Trace {
		tally.tr = newTracer()
	}
	m0 := snapshotMetrics(node.svc.Metrics())
	rt0 := sampleRuntime()

	// Latency at the reference rate: open-loop latency depends on wake-up
	// and scheduling delays as much as on compute, so it stays raw.
	latDur := time.Duration(cfg.Seconds * serveLatencyShare * float64(time.Second))
	samples, dropped := node.openLoop(stream, serveRefRPS, latDur)
	lat, _ := tally.addPhase(samples, dropped, true)
	out.Metrics["latency_p50_ms"] = median(lat)
	out.Metrics["raw.latency_p50_ms"] = median(lat)
	out.Metrics["latency_p99_ms"] = quantile(lat, 0.99)
	out.Metrics["loadgen.offered_rps"] = serveRefRPS
	out.Metrics["loadgen.late_p99_ms"] = quantile(tally.late, 0.99)
	// Read after the fixed-rate phase, a fixed amount of work.
	out.Metrics["peak_rss_mb"] = peakRSSMB()

	// Capacity: every connection sends its next request as soon as the
	// last one is answered, in chunks between reference samples.
	pc, err := newPacer(cfg.Ref.Sample, 0)
	if err != nil {
		return nil, err
	}
	var chunks []*unit
	done := 0
	capEnd := time.Now().Add(time.Duration(cfg.Seconds * (1 - serveLatencyShare) * float64(time.Second)))
	for time.Now().Before(capEnd) {
		t := time.Now()
		samples := node.closedLoop(stream, chunkMS*time.Millisecond)
		u := &unit{rawMS: sinceMS(t)}
		ok, _ := tally.add(samples, 0)
		done += len(ok)
		chunks = append(chunks, u)
		if err := pc.Add(u); err != nil {
			return nil, err
		}
	}
	if err := pc.Finish(); err != nil {
		return nil, err
	}
	var norm, raw float64
	for _, u := range chunks {
		norm += u.normMS
		raw += u.rawMS
	}
	out.Metrics["verdicts_per_s"] = ratio(float64(done), norm/1000)
	out.Metrics["raw.verdicts_per_s"] = ratio(float64(done), raw/1000)

	rt1 := sampleRuntime()
	runtimeMetrics(out.Metrics, rt0, rt1, tally.verdicts)
	m1 := snapshotMetrics(node.svc.Metrics())
	serviceMetrics(out.Metrics, m0, m1)
	out.Metrics["service.http_ms"] = median(tally.httpMS)
	out.Metrics["service.queue_wait_ms"] = median(tally.queueMS)
	out.Metrics["service.run_ms"] = median(tally.runMS)
	out.Metrics["service.compile_ms"] = median(tally.compile)

	if cfg.Trace {
		if err := replayAll(tally.tr, tally.replay, 8*time.Second, out.Metrics); err != nil {
			return nil, err
		}
		out.Metrics["trace.overhead_frac"] = tally.tr.overheadFrac(sinceMS(tally.tr.t0))
		out.tracer = tally.tr
	}
	return out, nil
}

// serveDigest hashes the first 4096 items of a fresh stream with the same
// seed and pools; the live stream is not advanced.
func serveDigest(seed int64, s *serveStream) string {
	f := newServeStream(seed, s.specs, s.codes)
	parts := make([]string, 0, 4096)
	for i := 0; i < 4096; i++ {
		it := f.Next()
		parts = append(parts, fmt.Sprintf("%d %t %s", it.Kind, it.XVal, it.Spec))
	}
	return digestOf(parts)
}
