package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"testing"
)

// fakeSampler returns reference samples of nominal time scaled by the host
// slowdown of the moment.
func fakeSampler(slow func(i int) float64) func() (float64, error) {
	i := 0
	return func() (float64, error) {
		v := nominalRefMS * slow(i)
		i++
		return v, nil
	}
}

// normalizedUnits runs the same work through a pacer on a host whose speed
// follows slow: unit j's raw time is base[j] times the slowdown of the
// chunk it falls in.
func normalizedUnits(t *testing.T, base []float64, slow func(i int) float64) []float64 {
	t.Helper()
	pc, err := newPacer(fakeSampler(slow), 0)
	if err != nil {
		t.Fatal(err)
	}
	var units []*unit
	for j, b := range base {
		// Chunk j lies between samples j and j+1; a unit runs at the
		// speed of that interval.
		u := &unit{rawMS: b * (slow(j) + slow(j+1)) / 2, extra: []float64{b / 2 * (slow(j) + slow(j+1)) / 2}}
		units = append(units, u)
		if err := pc.Add(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := pc.Finish(); err != nil {
		t.Fatal(err)
	}
	var out []float64
	for _, u := range units {
		out = append(out, u.normMS, u.normExtra[0])
	}
	return out
}

// TestNormalizationIgnoresSlowdown feeds the same work through hosts that
// are uniformly slower, and one whose speed drifts slowly, and checks that
// the normalized values do not move.
func TestNormalizationIgnoresSlowdown(t *testing.T) {
	base := []float64{350, 120, 800, 42, 300, 300, 95, 610, 220, 330}
	ref := normalizedUnits(t, base, func(int) float64 { return 1 })
	for _, f := range []float64{1.1, 1.3, 2} {
		got := normalizedUnits(t, base, func(int) float64 { return f })
		for i := range got {
			if math.Abs(got[i]-ref[i]) > 1e-9*ref[i] {
				t.Fatalf("slowdown %.1f: unit %d normalized to %v, want %v", f, i, got[i], ref[i])
			}
		}
	}
	// A 30% slowdown that builds up over the run, 3% per chunk.
	drift := func(i int) float64 { return 1 + 0.03*float64(i) }
	got := normalizedUnits(t, base, drift)
	for i := range got {
		if rel := math.Abs(got[i]-ref[i]) / ref[i]; rel > 0.05 {
			t.Fatalf("drift: unit %d normalized to %v, want %v (off by %.3f)", i, got[i], ref[i], rel)
		}
	}
	var raw []float64
	for j, b := range base {
		raw = append(raw, b*(drift(j)+drift(j+1))/2)
	}
	if rel := math.Abs(raw[len(raw)-1]-base[len(base)-1]) / base[len(base)-1]; rel < 0.2 {
		t.Fatalf("the drifting host should slow the raw figure: off by only %.3f", rel)
	}
}

// TestNormalizeMSAtNominal: at nominal speed a time is its own
// normalization, and half speed halves it.
func TestNormalizeMSAtNominal(t *testing.T) {
	if got := normalizeMS(250, nominalRefMS); got != 250 {
		t.Fatalf("normalizeMS at nominal = %v, want 250", got)
	}
	if got := normalizeMS(250, 2*nominalRefMS); got != 125 {
		t.Fatalf("normalizeMS at half speed = %v, want 125", got)
	}
}

// pipeRef is a reference process served in-process at a fixed time: it
// speaks the kernel's line protocol through pipes, so the workloads run in
// tests without the kernel binary.
func pipeRef(t *testing.T, ms float64) *refProc {
	t.Helper()
	reqR, reqW := io.Pipe()
	repR, repW := io.Pipe()
	go func() {
		defer repW.Close()
		in := bufio.NewScanner(reqR)
		for in.Scan() {
			fmt.Fprintf(repW, "%d %d\n", int64(ms*1e6), refChecksum)
		}
	}()
	t.Cleanup(func() { reqW.Close() })
	return &refProc{in: reqW, out: bufio.NewReader(repR)}
}
