package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"paramring/internal/core"
	"paramring/internal/dsl"
	"paramring/internal/explicit"
	"paramring/internal/ltg"
	"paramring/internal/protocols"
	"paramring/internal/synthesis"
	"paramring/internal/verify"
)

// confirmStates bounds the explicit confirmation of recorded Proved
// verdicts: every ring size whose state space has at most this many states.
const confirmStates = 1 << 16

// Option sets of the workloads. serve-light sends half its first
// submissions with default options and half with xvalOpts; the verdict
// code is the same under both, and the known alarm can only appear under
// cross-validation, so answers are recorded under xvalOpts.
var (
	xvalOpts     = verify.Options{CrossValidateMaxK: 6, Workers: 1}
	allLaneOpts  = verify.Options{Invariant: true, CrossValidateMaxK: 6, Workers: 1}
	theoremX8Opt = verify.Options{CrossValidateMaxK: 8, Workers: 1}
)

// paperBases are the paper's synthesis inputs (Section 6) and their pinned
// outcomes: sum-not-two and agreement are solved; the methodology declares
// failure on 3-coloring (as the paper reports) and on 4-coloring.
var paperBases = []struct {
	Name string
	Base func() *core.Protocol
	Want string // "ok" or "none"
}{
	{"sum-not-two", protocols.SumNotTwoBase, "ok"},
	{"agreement", protocols.AgreementBase, "ok"},
	{"coloring3", func() *core.Protocol { return protocols.Coloring(3) }, "none"},
	{"coloring4", func() *core.Protocol { return protocols.Coloring(4) }, "none"},
}

// paperZoo pins the zoo's theorem verdicts as the paper states them
// (deadlock, livelock): the recorder refuses to write answers that
// disagree.
var paperZoo = map[string]string{
	"agreement":     "p/r", // Example 5.2 with both corrections livelocks
	"coloring2":     "r/p", // Figure 11 input: action-free, deadlocks
	"coloring3":     "r/p", // Figure 9 input: action-free, deadlocks
	"gouda-acharya": "p/r", // Figure 8: livelocks
	"matchingA":     "p/i", // Example 4.2: deadlock-free, Theorem 5.14 silent
	"sum-not-two":   "p/p", // Section 6.2 solution: stabilizes for every K
}

// recordAnswers regenerates expected.json: every pool member is verified
// under its workload's options, every Proved verdict is confirmed by the
// explicit engine on every ring size up to confirmStates states, and every
// synthesis outcome is re-verified.
func recordAnswers(path string) error {
	e := expectedFile{Pools: map[string][]expectedFamily{}, Zoo: map[string]string{}, ZooDigests: map[string]string{}, Synth: map[string]string{}, CostMS: map[string]float64{}}
	type job struct {
		key  string
		def  poolDef
		opts verify.Options
	}
	jobs := []job{{"fl", fleetPool, xvalOpts}, {"dv", wideSpecPool, allLaneOpts}, {"dv8", wideSpecPool, theoremX8Opt}}
	for _, d := range servePools {
		jobs = append(jobs, job{d.Name, d, xvalOpts})
	}
	for _, j := range jobs {
		fams, err := recordPool(j.key, j.def, j.opts, e.CostMS)
		if err != nil {
			return err
		}
		e.Pools[j.key] = fams
		fmt.Fprintf(os.Stderr, "recorded pool %s: %d families\n", j.key, len(fams))
	}
	zoo, err := loadZoo()
	if err != nil {
		return err
	}
	for _, z := range zoo {
		p, err := dsl.Parse(z.Source)
		if err != nil {
			return fmt.Errorf("zoo %s: %w", z.Name, err)
		}
		e.ZooDigests[z.Name] = z.Digest
		for lanes, opts := range map[string]verify.Options{"all": allLaneOpts, "x8": theoremX8Opt} {
			c, _, err := recordOne(p, opts)
			if err != nil {
				return fmt.Errorf("zoo %s/%s: %w", z.Name, lanes, err)
			}
			e.Zoo[z.Name+"/"+lanes] = c
		}
		if pin, ok := paperZoo[z.Name]; ok {
			// The theorem-lane code reads "<D><k>/<L><k>..."; compare the
			// two verdict letters.
			got := e.Zoo[z.Name+"/x8"]
			d, l, _ := strings.Cut(got, "/")
			if d[:1]+"/"+l[:1] != pin {
				return fmt.Errorf("zoo %s: theorem verdicts %s, the paper says %s", z.Name, got, pin)
			}
		}
	}
	for _, b := range paperBases {
		out, _, err := recordSynth(b.Base())
		if err != nil {
			return fmt.Errorf("synthesis %s: %w", b.Name, err)
		}
		if (out == "none") != (b.Want == "none") {
			return fmt.Errorf("synthesis %s: outcome %s, the paper says %s", b.Name, out, b.Want)
		}
		e.Synth[b.Name] = out
	}
	for _, d := range []poolDef{synthLightPool, synthHeavyPool} {
		specs, _, err := genPool(d)
		if err != nil {
			return err
		}
		for _, s := range specs {
			p, err := dsl.Parse(s.Source)
			if err != nil {
				return err
			}
			out, ms, err := recordSynth(p)
			if err != nil {
				// Not a valid synthesis input (e.g. self-enabling): left
				// out of the pool.
				fmt.Fprintf(os.Stderr, "synthesis base %s excluded: %v\n", s.Name, err)
				continue
			}
			e.Synth[s.Name] = out
			e.CostMS["synth/"+s.Name] = ms
		}
	}
	b, err := json.MarshalIndent(&e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func recordPool(key string, d poolDef, opts verify.Options, cost map[string]float64) ([]expectedFamily, error) {
	specs, digests, err := genPool(d)
	if err != nil {
		return nil, err
	}
	codes := make([]string, len(specs))
	errs := make([]error, len(specs))
	ms := make([]float64, len(specs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, s := range specs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, src string) {
			defer wg.Done()
			defer func() { <-sem }()
			p, err := dsl.Parse(src)
			if err != nil {
				errs[i] = err
				return
			}
			codes[i], ms[i], errs[i] = recordOne(p, opts)
		}(i, s.Source)
	}
	wg.Wait()
	byFam := map[string]*expectedFamily{}
	var names []string
	for i, s := range specs {
		if errs[i] != nil {
			return nil, fmt.Errorf("pool %s spec %s: %w", d.Name, s.Name, errs[i])
		}
		f := byFam[s.Family]
		if f == nil {
			f = &expectedFamily{Name: s.Family, Digest: digests[s.Family]}
			byFam[s.Family] = f
			names = append(names, s.Family)
		}
		f.Verdicts = append(f.Verdicts, codes[i])
		if d.Variants == 1 {
			cost[key+"/"+s.Name] = ms[i]
		}
	}
	sort.Strings(names)
	var out []expectedFamily
	for _, n := range names {
		out = append(out, *byFam[n])
	}
	return out, nil
}

// recordOne verifies p, confirms its Proved verdicts explicitly, and returns
// its code, marked when it carries the known alarm, and the verification's
// time in milliseconds.
func recordOne(p *core.Protocol, opts verify.Options) (string, float64, error) {
	t0 := time.Now()
	rep, err := verify.CheckCtx(context.Background(), p, opts)
	ms := sinceMS(t0)
	if err != nil {
		return "", 0, err
	}
	v := verdictOfReport(rep)
	c := v.code()
	for _, d := range rep.Disagreements {
		if !knownAlarm.MatchString(d) || !rep.ContiguousOnly {
			return "", 0, fmt.Errorf("lanes disagree: %v", rep.Disagreements)
		}
	}
	if len(rep.Disagreements) > 0 {
		c += alarmMark
	}
	// A full (not contiguous-only) livelock proof must hold on every
	// small ring; so must a deadlock proof.
	fullLivelock := rep.Livelock == verify.Proved && (!rep.ContiguousOnly || rep.LivelockProvedByInvariant)
	if err := confirmExplicit(p, rep.Deadlock == verify.Proved, fullLivelock); err != nil {
		return "", 0, err
	}
	return c, ms, nil
}

// confirmExplicit checks a deadlock-freedom and/or livelock-freedom claim
// with the explicit engine on every ring size of at most confirmStates
// states.
func confirmExplicit(p *core.Protocol, deadlock, livelock bool) error {
	if !deadlock && !livelock {
		return nil
	}
	for k := 2; ; k++ {
		n, ok := explicit.EstimateStates(p.Domain(), k)
		if !ok || n > confirmStates {
			return nil
		}
		in, err := explicit.NewInstance(p, k, explicit.WithWorkers(1))
		if err != nil {
			return fmt.Errorf("explicit K=%d: %w", k, err)
		}
		if deadlock && len(in.IllegitimateDeadlocks()) > 0 {
			return fmt.Errorf("explicit K=%d: illegitimate deadlock contradicts a recorded Proved", k)
		}
		if livelock && in.FindLivelock() != nil {
			return fmt.Errorf("explicit K=%d: livelock contradicts a recorded Proved", k)
		}
	}
}

// synthOutcome renders a synthesis result as its committed form.
func synthOutcome(res *synthesis.Result, err error) (string, error) {
	if errors.Is(err, synthesis.ErrNoSolution) {
		return "none", nil
	}
	if err != nil {
		return "", err
	}
	best := res.Best()
	h := sha256.Sum256([]byte(ltg.FormatTArcs(best.Protocol.Compile(), best.Chosen)))
	return "ok:" + hex.EncodeToString(h[:6]), nil
}

// recordSynth synthesizes from base and, on success, checks that the result
// stabilizes for every K by both theorems and on every small ring. It
// returns the outcome and the synthesis time in milliseconds.
func recordSynth(base *core.Protocol) (string, float64, error) {
	t0 := time.Now()
	res, err := synthesis.Synthesize(base, synthesis.Options{Workers: 1})
	ms := sinceMS(t0)
	out, err := synthOutcome(res, err)
	if err != nil || out == "none" {
		return out, ms, err
	}
	p := res.Best().Protocol
	rep, err := verify.Check(p, verify.Options{Workers: 1})
	if err != nil {
		return "", 0, err
	}
	if !rep.SelfStabilizing {
		return "", 0, fmt.Errorf("synthesized protocol is not proved self-stabilizing: %s", rep.Summary())
	}
	return out, ms, confirmExplicit(p, true, true)
}
