package main

import (
	"math"
	"strings"
	"testing"
)

func servePoolsForTest(t *testing.T) ([][]poolSpec, [][]string) {
	t.Helper()
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	var specs [][]poolSpec
	var codes [][]string
	for _, d := range servePools {
		s, c, err := exp.poolAnswers(d.Name, d)
		if err != nil {
			t.Fatal(err)
		}
		specs, codes = append(specs, s), append(codes, c)
	}
	return specs, codes
}

// TestServeStreamDeterministic: the same seed gives a byte-identical
// stream digest; another seed gives another stream with the same mix of
// kinds, strata and option sets.
func TestServeStreamDeterministic(t *testing.T) {
	specs, codes := servePoolsForTest(t)
	a := serveDigest(7, newServeStream(7, specs, codes))
	b := serveDigest(7, newServeStream(7, specs, codes))
	if a != b {
		t.Fatalf("same seed, digests %s and %s", a, b)
	}
	if c := serveDigest(8, newServeStream(8, specs, codes)); c == a {
		t.Fatalf("seeds 7 and 8 give the same stream %s", a)
	}
	mix := func(seed int64) map[string]int {
		s := newServeStream(seed, specs, codes)
		m := map[string]int{}
		for i := 0; i < 4000; i++ {
			it := s.Next()
			m[string(rune('a'+it.Kind))]++
			if it.Kind == kindFirst {
				stratum := strings.SplitN(it.Spec, "\n", 2)[0][len("protocol "):][:2]
				m[stratum]++
				if it.XVal {
					m["xval"]++
				}
			}
		}
		return m
	}
	// The stream's first re-submission slots, before anything was
	// submitted, become first submissions: allow that much slack.
	near := func(a, b int) bool { return a-b <= 2 && b-a <= 2 }
	m7, m8 := mix(7), mix(8)
	for k, v := range m7 {
		if !near(m8[k], v) {
			t.Fatalf("mix differs between seeds at %q: %d vs %d (%v vs %v)", k, v, m8[k], m7, m8)
		}
	}
	if !near(m7["a"], 2000) || !near(m7["b"], 1200) || !near(m7["c"], 800) {
		t.Fatalf("kinds = %v, want 5:3:2 in tenths", m7)
	}
}

// TestFleetBatchesDeterministic: the same seed gives the same batches; every
// batch is 64 siblings of one family under any seed.
func TestFleetBatchesDeterministic(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	specs, codes, err := exp.poolAnswers(fleetPool.Name, fleetPool)
	if err != nil {
		t.Fatal(err)
	}
	a := fleetDigest(3, newFleetBatches(3, specs, codes))
	if b := fleetDigest(3, newFleetBatches(3, specs, codes)); a != b {
		t.Fatalf("same seed, digests %s and %s", a, b)
	}
	if c := fleetDigest(4, newFleetBatches(4, specs, codes)); c == a {
		t.Fatalf("seeds 3 and 4 give the same batches")
	}
	bs := newFleetBatches(4, specs, codes)
	for i := 0; i < 2*fleetPool.Families; i++ {
		srcs, cs := bs.Next()
		if len(srcs) != fleetPool.Variants || len(cs) != len(srcs) {
			t.Fatalf("batch %d has %d specs, %d codes", i, len(srcs), len(cs))
		}
	}
}

// TestDesignTasksStratified: the same seed gives the same tasks; other seeds
// give different tasks of the same kinds and nearly the same recorded cost.
func TestDesignTasksStratified(t *testing.T) {
	if err := chdirRepoRoot(t); err != nil {
		t.Fatal(err)
	}
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	cost := func(seed int64) (float64, map[string]int, string) {
		tasks, err := designTasks(seed, exp)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		total := 0.0
		var names []string
		for _, tk := range tasks {
			kind, name, _ := strings.Cut(tk.Name, "/")
			kinds[kind]++
			names = append(names, tk.Name)
			switch {
			case kind == "synth":
				total += exp.CostMS["synth/"+name]
			case kind == "all" && strings.HasPrefix(name, "dv"):
				total += exp.CostMS["dv/"+name]
			case kind == "x8" && strings.HasPrefix(name, "dv"):
				total += exp.CostMS["dv8/"+name]
			}
		}
		return total, kinds, strings.Join(names, ",")
	}
	c1, k1, n1 := cost(1)
	_, _, again := cost(1)
	if n1 != again {
		t.Fatal("same seed, different tasks")
	}
	for seed := int64(2); seed <= 6; seed++ {
		c, k, n := cost(seed)
		if n == n1 {
			t.Fatalf("seeds 1 and %d draw the same tasks", seed)
		}
		for kind, v := range k1 {
			if k[kind] != v {
				t.Fatalf("seed %d: %d %s tasks, seed 1 has %d", seed, k[kind], kind, v)
			}
		}
		if rel := math.Abs(c-c1) / c1; rel > 0.15 {
			t.Fatalf("seed %d: recorded cost %.0f ms vs %.0f ms for seed 1 (%.2f apart)", seed, c, c1, rel)
		}
	}
}
