package explicit

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"paramring/internal/core"
	"paramring/internal/protocols"
)

// statesCap keeps the property sweep affordable: protocols whose domain^K
// exceeds it at a given K are skipped for that K (the sweep still covers
// every zoo protocol at its smaller sizes).
const statesCap = 1 << 17

// zooNames returns the registered protocols in deterministic order.
func zooNames() []string {
	var names []string
	for name := range protocols.All() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func sameWitness(a, b *uint64) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

// assertSameResults checks that got, an instance of the same protocol and
// ring size as ref but with another worker count, returns identical
// verdicts AND identical witnesses on every whole-space pass: I(K),
// strong convergence, Deadlocks, IllegitimateDeadlocks and the closure
// witness, plus weak convergence and the recovery radius when bfs is set.
func assertSameResults(t *testing.T, ref, got *Instance, bfs bool) {
	t.Helper()
	w := got.Workers()
	if !reflect.DeepEqual(ref.inI, got.inI) {
		t.Fatalf("workers=%d: I(K) evaluation differs", w)
	}
	rrep := ref.CheckStrongConvergence()
	grep := got.CheckStrongConvergence()
	if rrep.Converges != grep.Converges {
		t.Fatalf("workers=%d: Converges = %v, want %v", w, grep.Converges, rrep.Converges)
	}
	if !sameWitness(rrep.DeadlockWitness, grep.DeadlockWitness) {
		t.Fatalf("workers=%d: DeadlockWitness = %v, want %v", w, grep.DeadlockWitness, rrep.DeadlockWitness)
	}
	if !reflect.DeepEqual(rrep.LivelockWitness, grep.LivelockWitness) {
		t.Fatalf("workers=%d: LivelockWitness = %v, want %v", w, grep.LivelockWitness, rrep.LivelockWitness)
	}
	if grep.LivelockWitness != nil && !got.IsLivelock(grep.LivelockWitness) {
		t.Fatalf("workers=%d: livelock witness does not validate", w)
	}
	if grep.StatesExplored != ref.NumStates() {
		t.Fatalf("workers=%d: StatesExplored = %d, want %d", w, grep.StatesExplored, ref.NumStates())
	}
	if !reflect.DeepEqual(ref.Deadlocks(), got.Deadlocks()) {
		t.Fatalf("workers=%d: Deadlocks differ", w)
	}
	if !reflect.DeepEqual(ref.IllegitimateDeadlocks(), got.IllegitimateDeadlocks()) {
		t.Fatalf("workers=%d: IllegitimateDeadlocks differ", w)
	}
	if rv, gv := ref.CheckClosure(), got.CheckClosure(); !reflect.DeepEqual(rv, gv) {
		t.Fatalf("workers=%d: CheckClosure = %v, want %v", w, gv, rv)
	}
	if !bfs {
		return
	}
	rok, rstuck := ref.CheckWeakConvergence()
	gok, gstuck := got.CheckWeakConvergence()
	if rok != gok || !reflect.DeepEqual(rstuck, gstuck) {
		t.Fatalf("workers=%d: CheckWeakConvergence = (%v, %d states), want (%v, %d states)",
			w, gok, len(gstuck), rok, len(rstuck))
	}
	rmax, rmean, rall := ref.RecoveryRadius()
	gmax, gmean, gall := got.RecoveryRadius()
	if rmax != gmax || rmean != gmean || rall != gall {
		t.Fatalf("workers=%d: RecoveryRadius = (%d, %f, %v), want (%d, %f, %v)",
			w, gmax, gmean, gall, rmax, rmean, rall)
	}
}

// TestParallelMatchesSequential is the engine's contract: for every zoo
// protocol and K in 4..10, the chunked passes return identical verdicts
// AND identical witnesses at one worker (a single inline chunk) and at
// four — deadlocks, livelock cycles, weak convergence, recovery radii,
// closure. Run under -race in CI (with -cpu variations) this doubles as
// the concurrency soundness suite.
func TestParallelMatchesSequential(t *testing.T) {
	for _, name := range zooNames() {
		p := protocols.All()[name]
		for k := 4; k <= 10; k++ {
			seq, err := NewInstance(p, k, WithWorkers(1), WithMaxStates(statesCap))
			if err != nil {
				continue // domain^K beyond the sweep cap at this K
			}
			par, err := NewInstance(p, k, WithWorkers(4), WithMaxStates(statesCap))
			if err != nil {
				t.Fatalf("%s K=%d: %v", name, k, err)
			}
			t.Run(fmt.Sprintf("%s/K=%d", name, k), func(t *testing.T) {
				// The backward-BFS surfaces are the heavy part; bound them.
				assertSameResults(t, seq, par, seq.NumStates() <= 1<<13)
			})
		}
	}
}

// TestParallelWorkerCountsAgree varies the worker count (including odd
// ones and more workers than meaningful chunks) on a protocol with real
// livelocks and on one whose I is not closed, pinning down that
// chunk-boundary arithmetic never changes any answer.
func TestParallelWorkerCountsAgree(t *testing.T) {
	for _, tc := range []struct {
		p  *core.Protocol
		ks []int
	}{
		{protocols.GoudaAcharya(), []int{5, 6, 7}},
		{leakyProtocol(), []int{4, 7}},
	} {
		for _, k := range tc.ks {
			ref := mustInstance(t, tc.p, k, WithWorkers(1))
			for _, w := range []int{2, 3, 4, 5, 8, 64} {
				assertSameResults(t, ref, mustInstance(t, tc.p, k, WithWorkers(w)), true)
			}
		}
	}
}

// leakyProtocol is a fixture whose I is NOT closed (an action jumps out of
// I); the zoo protocols are all closed and would leave CheckClosure's
// witness path untested.
func leakyProtocol() *core.Protocol {
	return core.MustNew(core.Config{
		Name:   "leaky",
		Domain: 2,
		Lo:     -1, Hi: 0,
		Actions: []core.Action{{
			Name:  "leak",
			Guard: func(v core.View) bool { return v[1] == 0 },
			Next:  func(v core.View) []int { return []int{1} },
		}},
		Legit: func(v core.View) bool { return v[1] == 0 },
	})
}

// TestParallelClosureViolation checks the closure witness on the leaky
// fixture is found, and found identically at one and four workers.
func TestParallelClosureViolation(t *testing.T) {
	p := leakyProtocol()
	for _, k := range []int{4, 7} {
		sv := mustInstance(t, p, k, WithWorkers(1)).CheckClosure()
		pv := mustInstance(t, p, k, WithWorkers(4)).CheckClosure()
		if sv == nil || pv == nil {
			t.Fatalf("K=%d: expected a closure violation, got seq=%v par=%v", k, sv, pv)
		}
		if *sv != *pv {
			t.Fatalf("K=%d: closure witness seq=%+v par=%+v", k, *sv, *pv)
		}
	}
}

// TestWithWorkersDefaults pins the option contract: default and n <= 0
// resolve to at least one worker, and the accessor reports the setting.
func TestWithWorkersDefaults(t *testing.T) {
	p := protocols.AgreementBase()
	if w := mustInstance(t, p, 4).Workers(); w < 1 {
		t.Fatalf("default workers = %d", w)
	}
	if w := mustInstance(t, p, 4, WithWorkers(-3)).Workers(); w < 1 {
		t.Fatalf("WithWorkers(-3) resolved to %d", w)
	}
	if w := mustInstance(t, p, 4, WithWorkers(6)).Workers(); w != 6 {
		t.Fatalf("WithWorkers(6) resolved to %d", w)
	}
}

// TestBitsetClaimsAreExclusive hammers TestAndSet from many goroutines and
// checks every bit is claimed exactly once in total.
func TestBitsetClaimsAreExclusive(t *testing.T) {
	const n = 1 << 12
	const gor = 8
	b := newBitset(n)
	wins := make([]int, gor)
	var wg sync.WaitGroup
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for id := uint64(0); id < n; id++ {
				if b.TestAndSet(id) {
					wins[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, w := range wins {
		total += w
	}
	if total != n {
		t.Fatalf("claimed %d bits, want %d", total, n)
	}
	for id := uint64(0); id < n; id++ {
		if !b.Get(id) {
			t.Fatalf("bit %d unset after claims", id)
		}
	}
}

// TestChunkForCoversRange checks the chunk partition is exact for awkward
// n/worker combinations.
func TestChunkForCoversRange(t *testing.T) {
	for _, n := range []uint64{0, 1, 63, 64, 65, 1000} {
		for _, w := range []int{1, 2, 3, 7, 64} {
			var covered uint64
			prevHi := uint64(0)
			for i := 0; i < w; i++ {
				lo, hi := chunkFor(n, w, i)
				if lo > hi || lo < prevHi {
					t.Fatalf("n=%d w=%d chunk %d: [%d,%d) after %d", n, w, i, lo, hi, prevHi)
				}
				if i > 0 && lo != prevHi && lo != n {
					t.Fatalf("n=%d w=%d chunk %d: gap %d..%d", n, w, i, prevHi, lo)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n {
				t.Fatalf("n=%d w=%d: covered %d states", n, w, covered)
			}
		}
	}
}

// TestSynthesizeGlobalWorkersDeterministic: the parallel per-K baseline
// must pick exactly the sequential search's candidate, with the same
// CandidatesTried and StatesExplored bookkeeping (Table 4 depends on it).
func TestSynthesizeGlobalWorkersDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    int
	}{
		{"agreement", 3},
		{"sum-not-two", 3},
		{"sum-not-two", 4},
		{"coloring3", 3},
	} {
		base := protocols.All()[tc.name]
		seq, err := SynthesizeGlobalWorkers(base, tc.k, 0, 1)
		if err != nil {
			t.Fatalf("%s K=%d seq: %v", tc.name, tc.k, err)
		}
		for _, w := range []int{2, 4, 7} {
			par, err := SynthesizeGlobalWorkers(base, tc.k, 0, w)
			if err != nil {
				t.Fatalf("%s K=%d workers=%d: %v", tc.name, tc.k, w, err)
			}
			if !reflect.DeepEqual(par.Chosen, seq.Chosen) {
				t.Fatalf("%s K=%d workers=%d: chose %v, sequential chose %v",
					tc.name, tc.k, w, par.Chosen, seq.Chosen)
			}
			if par.CandidatesTried != seq.CandidatesTried || par.StatesExplored != seq.StatesExplored {
				t.Fatalf("%s K=%d workers=%d: tried=%d explored=%d, sequential tried=%d explored=%d",
					tc.name, tc.k, w, par.CandidatesTried, par.StatesExplored,
					seq.CandidatesTried, seq.StatesExplored)
			}
		}
	}
}

// TestSynthesizeGlobalWorkersFailureAgrees: when no candidate converges
// (2-coloring), both paths report the same failure.
func TestSynthesizeGlobalWorkersFailureAgrees(t *testing.T) {
	base := protocols.Coloring(2)
	_, seqErr := SynthesizeGlobalWorkers(base, 4, 0, 1)
	_, parErr := SynthesizeGlobalWorkers(base, 4, 0, 4)
	if seqErr == nil || parErr == nil {
		t.Fatalf("expected failures, got seq=%v par=%v", seqErr, parErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Fatalf("failure modes differ: seq=%q par=%q", seqErr, parErr)
	}
}

// TestParallelSharedInstance exercises concurrent use of ONE instance — the
// lazily built fast-path table and read-only caches must be safe when the
// same instance serves queries from many goroutines.
func TestParallelSharedInstance(t *testing.T) {
	in := mustInstance(t, protocols.SumNotTwoSolution(), 7, WithWorkers(4))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := uint64(0); id < in.NumStates(); id += 17 {
				in.Successors(id)
				in.IsDeadlock(id)
			}
		}()
	}
	wg.Wait()
	if !in.CheckStrongConvergence().Converges {
		t.Fatal("verdict changed under concurrent queries")
	}
}
