package explicit

import (
	"context"
	"math"
	"runtime/trace"
	"slices"
	"sync"
	"sync/atomic"
)

// The chunked whole-space engine. The global side of the paper's Table 1 is
// domain^K work by construction — local reasoning (Theorems 4.2 and 5.14)
// avoids the exponent, and this file only shrinks the constant so the
// oracle/baseline comparison runs as fast as the hardware allows. Every
// whole-space pass has exactly one implementation: the range it walks is
// split into one contiguous chunk per worker (forEachChunk), a single
// worker runs its one chunk inline on the calling goroutine, and every
// merge is order-stable, so results never depend on the worker count:
//
//   - the smallest-witness scans (illegitimate-deadlock search,
//     CheckClosure) CAS-min each chunk's first hit (firstState), and the
//     collections (Deadlocks, IllegitimateDeadlocks) concatenate per-chunk
//     lists in chunk order (collectStates);
//   - the backward BFS of CheckWeakConvergence/RecoveryRadius runs
//     level-synchronously with a lock-free CAS bitset claiming states, so
//     the computed distances are the (unique) BFS distances regardless of
//     worker interleaving (DistancesToI);
//   - livelock detection (the cycle search of Proposition 2.1) builds the
//     not-I-restricted transition graph chunk-wise as a CSR adjacency and
//     then runs one serial Tarjan over it (buildNotIGraph). Tarjan itself
//     stays serial — Amdahl caps the speedup, but successor generation (a
//     window decode plus a table lookup per process per state) dominates.
//
// TestParallelMatchesSequential and TestParallelWorkerCountsAgree pin the
// results equal across worker counts under -race, and TestOracleAgreement
// checks them against a plain decode-and-successors oracle.

// chunkFor returns the half-open range of chunk w when [0, n) is split into
// workers contiguous chunks. Chunk boundaries are rounded up to multiples
// of 64 states so that every chunk owns whole words of the packed bitsets —
// concurrent chunk fills can then use plain (non-atomic) bit writes without
// ever sharing a word across workers.
func chunkFor(n uint64, workers, w int) (lo, hi uint64) {
	size := (n + uint64(workers) - 1) / uint64(workers)
	size = (size + 63) &^ 63
	lo = uint64(w) * size
	hi = lo + size
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// forEachChunk splits [0, n) into one contiguous chunk per worker, runs fn
// on every non-empty chunk concurrently and waits for all of them. w is the
// chunk's index in [0, in.workers), so per-chunk results can be merged in
// range order. With a single worker fn runs inline on [0, n).
func (in *Instance) forEachChunk(n uint64, fn func(w int, lo, hi uint64)) {
	if in.workers <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < in.workers; w++ {
		lo, hi := chunkFor(n, in.workers, w)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w int, lo, hi uint64) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// firstState returns the smallest state code satisfying pred. Each chunk
// scans ascending, stops at its first hit (the chunk's minimum) and CAS-mins
// it into the result; chunks above an already-found hit bail out at their
// next poll. The scratch handed to pred has its odometer synced to id, so
// predicates can use the incremental deadlockAt/successorsAt helpers. A
// done ctx stops every chunk, leaving the result partial: callers must
// consult ctx.Err() before trusting it.
func (in *Instance) firstState(ctx context.Context, pred func(id uint64, sc *scratch) bool) (uint64, bool) {
	var best atomic.Uint64
	best.Store(math.MaxUint64)
	in.forEachChunk(in.n, func(_ int, lo, hi uint64) {
		sc := in.newScratch()
		sc.od.reset(lo)
		for id := lo; id < hi; id++ {
			if id&cancelCheckMask == 0 && (ctx.Err() != nil || best.Load() < lo) {
				return
			}
			if pred(id, sc) {
				for {
					cur := best.Load()
					if id >= cur || best.CompareAndSwap(cur, id) {
						return
					}
				}
			}
			if id+1 < hi {
				sc.od.step()
			}
		}
	})
	id := best.Load()
	return id, id != math.MaxUint64
}

// collectStates returns, in increasing state-code order, every state
// satisfying pred (with the odometer synced as for firstState). Per-chunk
// lists are concatenated in chunk order, so the result is independent of
// the worker count.
func (in *Instance) collectStates(pred func(id uint64, sc *scratch) bool) []uint64 {
	parts := make([][]uint64, in.workers)
	in.forEachChunk(in.n, func(w int, lo, hi uint64) {
		sc := in.newScratch()
		sc.od.reset(lo)
		var out []uint64
		for id := lo; id < hi; id++ {
			if pred(id, sc) {
				out = append(out, id)
			}
			if id+1 < hi {
				sc.od.step()
			}
		}
		parts[w] = out
	})
	return slices.Concat(parts...)
}

// parallelEdgeBudget bounds the CSR adjacency the livelock check
// materializes (edges are bounded by states x ring size). Past the budget
// FindLivelockCtx falls back to the on-the-fly Tarjan — correctness is
// unaffected, only the speed of the livelock phase.
const parallelEdgeBudget = 1 << 27

// notIGraph is the Delta_p | not-I transition graph in compressed sparse
// row form: states in I have an empty row, successors are the sorted
// deduplicated not-I successors — exactly what FindLivelock's on-the-fly
// fallback generates.
type notIGraph struct {
	off   []uint64
	edges []uint32
}

// succ returns the not-I successors of id as a fresh slice (the Tarjan
// frames retain it), matching the on-the-fly fallback's contract.
func (g *notIGraph) succ(id uint64) []uint64 {
	lo, hi := g.off[id], g.off[id+1]
	if lo == hi {
		return nil
	}
	out := make([]uint64, hi-lo)
	for i := lo; i < hi; i++ {
		out[i-lo] = uint64(g.edges[i])
	}
	return out
}

// buildNotIGraph materializes Delta_p | not-I as a CSR adjacency, one
// ascending odometer sweep per chunk. Each chunk writes its chunk-relative
// row ends into off and keeps its own edge list; the lists are stitched in
// chunk order and the row ends rebased, so the layout (rows ascending, each
// row sorted) is independent of the worker count and findLivelock reports
// the same witness over it. A single chunk's edge list is adopted as is.
// Returns a nil graph and nil error past the edge budget, and ctx.Err()
// (never a partial graph) once ctx is done.
func (in *Instance) buildNotIGraph(ctx context.Context) (*notIGraph, error) {
	if in.n > math.MaxUint32 || in.n*uint64(in.k) > parallelEdgeBudget {
		return nil, nil
	}
	defer trace.StartRegion(ctx, "explicit.csrBuild").End()
	g := &notIGraph{off: make([]uint64, in.n+1)}
	parts := make([][]uint32, in.workers)
	in.forEachChunk(in.n, func(w int, lo, hi uint64) {
		sc := in.newScratch()
		sc.od.reset(lo)
		var edges []uint32
		// The chunk is one ID-sorted run: the odometer keeps the window codes
		// current and the ascending ids keep the inI words and the flat table
		// hot, so the CSR build streams instead of chasing.
		for id := lo; id < hi; id++ {
			if id&cancelCheckMask == 0 && ctx.Err() != nil {
				return // partial chunk; discarded below via ctx.Err()
			}
			if !in.inI.Get(id) {
				for _, s := range in.successorsAt(sc) {
					if !in.inI.Get(s) {
						edges = append(edges, uint32(s))
					}
				}
			}
			g.off[id+1] = uint64(len(edges))
			if id+1 < hi {
				sc.od.step()
			}
		}
		parts[w] = edges
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		g.edges = parts[0]
		return g, nil
	}
	var base uint64
	for w, p := range parts {
		if base > 0 {
			lo, hi := chunkFor(in.n, in.workers, w)
			for i := lo + 1; i <= hi; i++ {
				g.off[i] += base
			}
		}
		base += uint64(len(p))
	}
	g.edges = slices.Concat(parts...)
	return g, nil
}

// DistancesToI returns, per state code, the length of the shortest
// computation from that state into I(K): 0 inside I, -1 when I is
// unreachable. It is the backward BFS behind CheckWeakConvergence and
// RecoveryRadius, run level-synchronously: each level's frontier is split
// into one chunk per worker, predecessors are claimed through the CAS
// bitset (exactly one chunk wins a state), and the level barrier makes the
// claimed distances visible before the next level reads them. BFS
// distances are unique, so the result is independent of the worker count.
// The slice is freshly allocated.
func (in *Instance) DistancesToI() []int32 {
	dist := make([]int32, in.n)
	for i := range dist {
		dist[i] = -1
	}
	seen := newBitset(in.n)
	// Seed the level-0 frontier straight from the membership bits at word
	// speed; it is ascending by construction.
	frontier := in.inI.AppendSetBits(nil, 0, in.n)
	for _, id := range frontier {
		seen.Set(id)
		dist[id] = 0
	}
	// Per-chunk decode buffers, scratch and next-level lists, reused across
	// levels. vals is separate from the scratch because hasTransitionScratch
	// decodes the predecessor into the scratch's own buffer.
	vals := make([][]int, in.workers)
	scs := make([]*scratch, in.workers)
	parts := make([][]uint64, in.workers)
	level := int32(1)
	expand := func(w int, lo, hi uint64) {
		if scs[w] == nil {
			vals[w], scs[w] = make([]int, in.k), in.newScratch()
		}
		v, sc, next := vals[w], scs[w], parts[w]
		for _, id := range frontier[lo:hi] {
			in.DecodeInto(id, v)
			for r := 0; r < in.k; r++ {
				orig := v[r]
				for ov := 0; ov < in.d; ov++ {
					if ov == orig {
						continue
					}
					v[r] = ov
					pred := in.Encode(v)
					v[r] = orig
					if seen.GetAtomic(pred) || !in.hasTransitionScratch(pred, id, sc) {
						continue
					}
					if seen.TestAndSet(pred) {
						dist[pred] = level
						next = append(next, pred)
					}
				}
			}
		}
		parts[w] = next
	}
	for ; len(frontier) > 0; level++ {
		// Batched frontier processing: each level is expanded in ID-sorted
		// runs, so the predecessor probes of neighboring frontier states touch
		// neighboring bitset words and reuse the hot flat-table rows.
		slices.Sort(frontier)
		for w := range parts {
			parts[w] = parts[w][:0]
		}
		in.forEachChunk(uint64(len(frontier)), expand)
		if len(parts) == 1 {
			frontier, parts[0] = parts[0], frontier
			continue
		}
		frontier = frontier[:0]
		for _, p := range parts {
			frontier = append(frontier, p...)
		}
	}
	return dist
}
