package explicit

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"paramring/internal/core"
	"paramring/internal/protocols"
)

// oracleMaxStates bounds the instances the oracle sweep builds: every zoo
// protocol is covered at each ring size whose domain^K fits.
const oracleMaxStates = 1 << 12

// oracle answers every whole-space question from plain per-state Decode,
// direct I evaluation and SuccessorsDetailed — no odometer, no flat-table
// scan loop, no chunks — so it shares none of the orchestration or scan
// machinery the engine's passes run on.
type oracle struct {
	legit []bool
	succ  [][]uint64 // distinct successors per state
	trans [][]GlobalTransition
}

func newOracle(in *Instance) *oracle {
	n := in.NumStates()
	o := &oracle{legit: make([]bool, n), succ: make([][]uint64, n), trans: make([][]GlobalTransition, n)}
	for id := uint64(0); id < n; id++ {
		o.legit[id] = in.evalI(in.Decode(id))
		ts := in.SuccessorsDetailed(id)
		o.trans[id] = ts
		seen := map[uint64]bool{}
		for _, t := range ts {
			if !seen[t.To] {
				seen[t.To] = true
				o.succ[id] = append(o.succ[id], t.To)
			}
		}
	}
	return o
}

// deadlocks returns the states without successors, ascending; with
// illegitimateOnly, only those outside I.
func (o *oracle) deadlocks(illegitimateOnly bool) []uint64 {
	var out []uint64
	for id, s := range o.succ {
		if len(s) == 0 && !(illegitimateOnly && o.legit[id]) {
			out = append(out, uint64(id))
		}
	}
	return out
}

// closure returns the first transition out of I from the smallest
// I-state that has one, in SuccessorsDetailed order.
func (o *oracle) closure() *ClosureViolation {
	for id := range o.succ {
		if !o.legit[id] {
			continue
		}
		for _, t := range o.trans[id] {
			if !o.legit[t.To] {
				return &ClosureViolation{From: uint64(id), To: t.To, Process: t.Process, Action: t.Action}
			}
		}
	}
	return nil
}

// hasLivelock runs a coloured DFS over the not-I states along not-I
// successors; a grey target closes a cycle.
func (o *oracle) hasLivelock() bool {
	const white, grey, black = 0, 1, 2
	colour := make([]int, len(o.succ))
	var visit func(v uint64) bool
	visit = func(v uint64) bool {
		colour[v] = grey
		for _, w := range o.succ[v] {
			if o.legit[w] {
				continue
			}
			if colour[w] == grey || (colour[w] == white && visit(w)) {
				return true
			}
		}
		colour[v] = black
		return false
	}
	for v := range o.succ {
		if !o.legit[v] && colour[v] == white && visit(uint64(v)) {
			return true
		}
	}
	return false
}

// distances runs a forward-built, reverse-traversed BFS from I.
func (o *oracle) distances() []int32 {
	pred := make([][]uint64, len(o.succ))
	for v, ws := range o.succ {
		for _, w := range ws {
			pred[w] = append(pred[w], uint64(v))
		}
	}
	dist := make([]int32, len(o.succ))
	var queue []uint64
	for v := range dist {
		dist[v] = -1
		if o.legit[v] {
			dist[v] = 0
			queue = append(queue, uint64(v))
		}
	}
	for ; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		for _, u := range pred[v] {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// isCycle reports whether cycle is a cyclic path of oracle transitions
// through not-I states only.
func (o *oracle) isCycle(cycle []uint64) bool {
	for i, v := range cycle {
		next := cycle[(i+1)%len(cycle)]
		found := false
		for _, w := range o.succ[v] {
			found = found || w == next
		}
		if o.legit[v] || !found {
			return false
		}
	}
	return len(cycle) > 0
}

// TestOracleAgreement checks every whole-space pass of the engine, at one
// worker and at four, against the oracle: on every zoo protocol (the
// livelocking gouda-acharya included) at every ring size up to
// oracleMaxStates states, plus the leaky fixture whose I is not closed.
func TestOracleAgreement(t *testing.T) {
	type fixture struct {
		name string
		p    *core.Protocol
	}
	var fixtures []fixture
	for _, name := range zooNames() {
		fixtures = append(fixtures, fixture{name, protocols.All()[name]})
	}
	fixtures = append(fixtures, fixture{"leaky", leakyProtocol()})
	for _, f := range fixtures {
		n := uint64(f.p.Domain())
		for k := 2; n*uint64(f.p.Domain()) <= oracleMaxStates; k++ {
			n *= uint64(f.p.Domain())
			t.Run(fmt.Sprintf("%s/K=%d", f.name, k), func(t *testing.T) {
				o := newOracle(mustInstance(t, f.p, k, WithWorkers(1)))
				for _, w := range []int{1, 4} {
					checkAgainstOracle(t, o, mustInstance(t, f.p, k, WithWorkers(w)))
				}
			})
		}
	}
}

func checkAgainstOracle(t *testing.T, o *oracle, in *Instance) {
	t.Helper()
	w := in.Workers()
	dl, illegit := o.deadlocks(false), o.deadlocks(true)
	if got := in.Deadlocks(); !reflect.DeepEqual(got, dl) {
		t.Fatalf("workers=%d: Deadlocks = %v, oracle %v", w, got, dl)
	}
	if got := in.IllegitimateDeadlocks(); !reflect.DeepEqual(got, illegit) {
		t.Fatalf("workers=%d: IllegitimateDeadlocks = %v, oracle %v", w, got, illegit)
	}
	if got, want := in.CheckClosure(), o.closure(); !reflect.DeepEqual(got, want) {
		t.Fatalf("workers=%d: CheckClosure = %+v, oracle %+v", w, got, want)
	}
	livelock := o.hasLivelock()
	cycle := in.FindLivelock()
	if (cycle != nil) != livelock {
		t.Fatalf("workers=%d: FindLivelock = %v, oracle livelock %v", w, cycle, livelock)
	}
	rep := in.CheckStrongConvergence()
	switch {
	case len(illegit) > 0:
		if rep.Converges || rep.DeadlockWitness == nil || *rep.DeadlockWitness != illegit[0] || rep.LivelockWitness != nil {
			t.Fatalf("workers=%d: report %+v, oracle smallest illegitimate deadlock %d", w, rep, illegit[0])
		}
	case rep.DeadlockWitness != nil || (rep.LivelockWitness != nil) != livelock || rep.Converges == livelock:
		t.Fatalf("workers=%d: report %+v, oracle livelock %v and no illegitimate deadlock", w, rep, livelock)
	}
	for _, c := range [][]uint64{cycle, rep.LivelockWitness} {
		if c != nil && (!in.IsLivelock(c) || !o.isCycle(c)) {
			t.Fatalf("workers=%d: witness %v is not a livelock", w, c)
		}
	}
	if got, want := in.DistancesToI(), o.distances(); !reflect.DeepEqual(got, want) {
		t.Fatalf("workers=%d: DistancesToI = %v, oracle %v", w, got, want)
	}
}

// TestCancelledContextYieldsNoResult pins that a done context surfaces as
// context.Canceled with a zero report or nil cycle at any worker count —
// in particular that buildNotIGraph never hands a partial CSR to Tarjan.
func TestCancelledContextYieldsNoResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		in := mustInstance(t, protocols.GoudaAcharya(), 7, WithWorkers(w))
		rep, err := in.CheckStrongConvergenceCtx(ctx)
		if !errors.Is(err, context.Canceled) || !reflect.DeepEqual(rep, ConvergenceReport{}) {
			t.Fatalf("workers=%d: CheckStrongConvergenceCtx = (%+v, %v), want zero report and context.Canceled", w, rep, err)
		}
		cycle, err := in.FindLivelockCtx(ctx)
		if !errors.Is(err, context.Canceled) || cycle != nil {
			t.Fatalf("workers=%d: FindLivelockCtx = (%v, %v), want nil cycle and context.Canceled", w, cycle, err)
		}
	}
}
