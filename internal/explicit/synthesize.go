package explicit

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"paramring/internal/core"
)

// SynthesizeGlobal is the global-state-space synthesis baseline: the
// approach of STSyn [17] and related work [16,26,27] that the paper's local
// method improves on. It explores candidate recovery transitions and
// model-checks each candidate protocol exhaustively AT A FIXED RING SIZE K —
// so its cost grows as domain^K, and (the paper's central critique) its
// output carries no guarantee for other ring sizes. Example 4.3 is STSyn
// output that stabilizes for K=5 yet deadlocks for K=6; this reproduction's
// harness exhibits the same phenomenon with this baseline (see the
// lrexperiments "generalization" table).
//
// Candidates are the same self-disabling local transitions the local method
// uses (sources: illegitimate local deadlocks; targets: local deadlocks
// outside the resolved set), so the two methods search the same space and
// differ exactly in how they verify: global enumeration at one K versus
// local reasoning for all K.
//
// Assignments are tried in order of increasing resolved-state count, so the
// first solution found resolves as few local deadlocks as possible — the
// configuration most likely to be non-generalizable, faithfully modeling
// what a per-K synthesizer may produce.
type GlobalSynthesisResult struct {
	// Protocol is the synthesized protocol (base + recovery action "conv").
	Protocol *core.Protocol
	// Chosen are the added local transitions.
	Chosen []core.LocalTransition
	// CandidatesTried counts candidate protocols model-checked.
	CandidatesTried int
	// StatesExplored totals global states examined across all checks.
	StatesExplored uint64
	// PeakTableBytes is the largest resident per-state table held by any
	// candidate instance during the search (see Instance.TableBytes) — the
	// memory figure verify.Report aggregates across engines.
	PeakTableBytes uint64
}

// SynthesizeGlobal searches for recovery transitions making base strongly
// converge at ring size k. maxCandidates caps the number of candidate
// protocols model-checked (<= 0 selects 4096). Candidates are
// model-checked across runtime.GOMAXPROCS(0) workers; see
// SynthesizeGlobalWorkers for the determinism contract.
func SynthesizeGlobal(base *core.Protocol, k int, maxCandidates int) (*GlobalSynthesisResult, error) {
	return SynthesizeGlobalWorkers(base, k, maxCandidates, 0)
}

// SynthesizeGlobalCtx is SynthesizeGlobal with cooperative cancellation:
// the candidate search polls ctx between candidate model checks (and inside
// each check's scan loops) and returns ctx.Err() once the context is done.
func SynthesizeGlobalCtx(ctx context.Context, base *core.Protocol, k, maxCandidates int) (*GlobalSynthesisResult, error) {
	return synthesizeGlobalWorkers(ctx, base, k, maxCandidates, 0)
}

// SynthesizeGlobalWorkers is SynthesizeGlobal with an explicit worker
// count (0 selects runtime.GOMAXPROCS(0); 1 is the sequential reference).
// Candidates carry their enumeration index, workers claim indices from a
// shared counter, and the result is the converging candidate with the
// LOWEST index — so the chosen protocol, CandidatesTried, and
// StatesExplored are identical to the sequential search for any worker
// count. Workers stop claiming once an index below every unclaimed one has
// converged, preserving the early-exit that makes the per-K baseline
// competitive in the Table 4 benchmarks.
func SynthesizeGlobalWorkers(base *core.Protocol, k, maxCandidates, workers int) (*GlobalSynthesisResult, error) {
	return synthesizeGlobalWorkers(context.Background(), base, k, maxCandidates, workers)
}

func synthesizeGlobalWorkers(ctx context.Context, base *core.Protocol, k, maxCandidates, workers int) (*GlobalSynthesisResult, error) {
	if maxCandidates <= 0 {
		maxCandidates = 4096
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sys := base.Compile()
	if !sys.IsSelfDisabling() {
		return nil, fmt.Errorf("explicit: base protocol %q has self-enabling transitions", base.Name())
	}
	illegit := sys.IllegitimateDeadlocks()
	res := &GlobalSynthesisResult{}

	// Pre-compute per-state transition options (targets are base local
	// deadlocks; the not-in-resolved-set constraint is applied per subset).
	options := make(map[core.LocalState][]core.LocalState, len(illegit))
	p := base
	ownIdx := p.OwnIndex()
	for _, s := range illegit {
		view := p.Decode(s)
		for v := 0; v < p.Domain(); v++ {
			if v == view[ownIdx] {
				continue
			}
			dst := make(core.View, len(view))
			copy(dst, view)
			dst[ownIdx] = v
			code := p.Encode(dst)
			if sys.IsDeadlock[code] {
				options[s] = append(options[s], code)
			}
		}
	}

	// Subsets of illegitimate deadlocks to resolve, by increasing size.
	n := len(illegit)
	if n > 20 {
		return nil, fmt.Errorf("explicit: %d illegitimate local deadlocks is beyond this baseline's search budget", n)
	}
	masks := make([]int, 0, 1<<n)
	for m := 0; m < 1<<n; m++ {
		masks = append(masks, m)
	}
	sort.Slice(masks, func(i, j int) bool {
		bi, bj := bits.OnesCount(uint(masks[i])), bits.OnesCount(uint(masks[j]))
		if bi != bj {
			return bi < bj
		}
		return masks[i] < masks[j]
	})

	// Materialize the deterministic candidate order (one entry past the
	// budget is enough to distinguish "budget exhausted" from "search space
	// exhausted" — the same distinction the incremental loop made).
	var cands [][]core.LocalTransition
	for _, mask := range masks {
		if len(cands) > maxCandidates {
			break
		}
		resolved := map[core.LocalState]bool{}
		var states []core.LocalState
		for i, s := range illegit {
			if mask&(1<<i) != 0 {
				resolved[s] = true
				states = append(states, s)
			}
		}
		// Per-state choices restricted to targets outside the resolved set
		// (self-disablement of the synthesized protocol).
		perState := make([][]core.LocalState, len(states))
		feasible := true
		for i, s := range states {
			for _, dst := range options[s] {
				if !resolved[dst] {
					perState[i] = append(perState[i], dst)
				}
			}
			if len(perState[i]) == 0 {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		total := 1
		for _, cs := range perState {
			total *= len(cs)
		}
		for idx := 0; idx < total && len(cands) <= maxCandidates; idx++ {
			chosen := make([]core.LocalTransition, len(states))
			x := idx
			for i, cs := range perState {
				chosen[i] = core.LocalTransition{Src: states[i], Dst: cs[x%len(cs)], Action: "conv"}
				x /= len(cs)
			}
			cands = append(cands, chosen)
		}
	}
	overBudget := len(cands) > maxCandidates
	if overBudget {
		cands = cands[:maxCandidates]
	}

	win, peak, err := evalCandidates(ctx, base, k, cands, workers)
	if err != nil {
		return nil, err
	}
	if win >= 0 {
		cand, err := applyTable(base, cands[win])
		if err != nil {
			return nil, err
		}
		res.Protocol = cand
		res.Chosen = cands[win]
		res.CandidatesTried = win + 1
		res.StatesExplored = uint64(win+1) * instanceStates(base, k)
		res.PeakTableBytes = peak
		return res, nil
	}
	if overBudget {
		return nil, fmt.Errorf("explicit: candidate budget %d exhausted without a solution", maxCandidates)
	}
	return nil, fmt.Errorf("explicit: no candidate protocol converges at K=%d", k)
}

// instanceStates returns domain^k (every candidate check explores the full
// space, so StatesExplored is candidates-tried times this).
func instanceStates(base *core.Protocol, k int) uint64 {
	n := uint64(1)
	for i := 0; i < k; i++ {
		n *= uint64(base.Domain())
	}
	return n
}

// evalCandidates model-checks cands at ring size k and returns the lowest
// index whose protocol strongly converges (or -1) together with the peak
// resident table bytes across all checked instances. Workers claim indices
// in order from a shared counter and stop once no unclaimed index can beat
// the best winner so far; the minimum over winners makes the outcome
// independent of scheduling. With one worker this claims the indices in
// order and stops at the first winner or error. Candidate instances run
// their own checks sequentially (WithWorkers(1)) — the parallelism here is
// across candidates, not within one.
func evalCandidates(ctx context.Context, base *core.Protocol, k int, cands [][]core.LocalTransition, workers int) (int, uint64, error) {
	if len(cands) == 0 {
		return -1, 0, nil
	}
	var peak atomic.Uint64
	check := func(i int) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		cand, err := applyTable(base, cands[i])
		if err != nil {
			return false, err
		}
		in, err := NewInstanceCtx(ctx, cand, k, WithWorkers(1))
		if err != nil {
			return false, err
		}
		for {
			cur := peak.Load()
			if in.TableBytes() <= cur || peak.CompareAndSwap(cur, in.TableBytes()) {
				break
			}
		}
		rep, err := in.CheckStrongConvergenceCtx(ctx)
		if err != nil {
			return false, err
		}
		return rep.Converges, nil
	}
	var (
		next    atomic.Int64
		bestWin atomic.Int64
		errIdx  atomic.Int64
		errMu   sync.Mutex
		errs    = map[int64]error{}
		wg      sync.WaitGroup
	)
	bestWin.Store(int64(len(cands)))
	errIdx.Store(int64(len(cands)))
	casMin := func(a *atomic.Int64, v int64) {
		for {
			cur := a.Load()
			if v >= cur || a.CompareAndSwap(cur, v) {
				return
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(cands)) || i > bestWin.Load() || i > errIdx.Load() {
					return
				}
				ok, err := check(int(i))
				switch {
				case err != nil:
					errMu.Lock()
					errs[i] = err
					errMu.Unlock()
					casMin(&errIdx, i)
				case ok:
					casMin(&bestWin, i)
				}
			}
		}()
	}
	wg.Wait()
	if e := errIdx.Load(); e < bestWin.Load() {
		// The sequential search would have hit this error before any win.
		return -1, peak.Load(), errs[e]
	}
	if w := bestWin.Load(); w < int64(len(cands)) {
		return int(w), peak.Load(), nil
	}
	return -1, peak.Load(), nil
}

// applyTable mirrors synthesis.Apply without importing it (avoiding a
// dependency cycle): attach chosen transitions as one table action.
func applyTable(base *core.Protocol, chosen []core.LocalTransition) (*core.Protocol, error) {
	sys := base.Compile()
	moves := map[core.LocalState][]int{}
	for _, t := range chosen {
		moves[t.Src] = append(moves[t.Src], sys.OwnValue(t.Dst))
	}
	for _, vs := range moves {
		sort.Ints(vs)
	}
	ta := core.TableAction{Name: "conv", Moves: moves}
	return base.WithActions(base.Name()+"/global-ss", ta.Action(base.Domain())), nil
}
