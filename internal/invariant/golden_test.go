package invariant

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"paramring/internal/core"
	"paramring/internal/dsl"
	"paramring/internal/protocols"
	"paramring/internal/protogen"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/certificate_golden.json")

// goldenEntry pins one analysis: the sha256 of the canonical certificate and
// the simplex pivot count that produced it.
type goldenEntry struct {
	Canon  string `json:"canon_sha256"`
	Pivots int    `json:"pivots"`
}

// goldenCase is one pinned protocol; sweep members are pinned only when
// their analysis builds an LP.
type goldenCase struct {
	name  string
	p     *core.Protocol
	sweep bool
}

// goldenProtocols returns the candidate protocol set: every zoo protocol,
// plus every member of a seeded sweep of 64-local-state specs (domain 4,
// window [-1,1]; the same family shape and seed as the end-to-end
// benchmark's all-lane pool).
func goldenProtocols(t *testing.T) []goldenCase {
	t.Helper()
	var out []goldenCase
	for name, p := range protocols.All() {
		out = append(out, goldenCase{name: name, p: p})
	}
	sw := &protogen.Sweep{Seed: 3303}
	for f := 0; f < 32; f++ {
		sw.Families = append(sw.Families, protogen.SweepFamily{
			Name: fmt.Sprintf("dv%02d", f), Domain: 4, Lo: -1, Hi: 1, Variants: 1, MovePercent: 15,
		})
	}
	specs, err := sw.Specs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if len(s.Deps) == 0 {
			continue // family bases have no actions
		}
		p, err := dsl.Parse(s.Source)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		out = append(out, goldenCase{name: s.Name, p: p, sweep: true})
	}
	return out
}

// TestCertificateGolden pins every certificate byte for byte, and the pivot
// count behind it, against committed values. TestCertificateDeterminism only
// compares runs of the current solver with each other; this test is what
// holds a solver rewrite to the exact pivot sequence and rational solution of
// the one it replaces. Sweep members whose analysis builds no LP are left
// out: they do not exercise the solver. Regenerate with -update only when a
// certificate change is intended.
func TestCertificateGolden(t *testing.T) {
	got := map[string]goldenEntry{}
	for _, c := range goldenProtocols(t) {
		rep, err := Analyze(context.Background(), c.p, Options{})
		if err != nil {
			t.Fatalf("Analyze(%s): %v", c.name, err)
		}
		if c.sweep && rep.Constraints == 0 {
			continue
		}
		sum := sha256.Sum256(rep.Certificate.Canon())
		got[c.name] = goldenEntry{Canon: hex.EncodeToString(sum[:]), Pivots: rep.Pivots}
	}
	path := filepath.Join("testdata", "certificate_golden.json")
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: pinned but no longer analyzed with an LP", name)
		case g != w:
			t.Errorf("%s: certificate %s after %d pivots, pinned %s after %d", name, g.Canon, g.Pivots, w.Canon, w.Pivots)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: analyzed with an LP but not pinned", name)
		}
	}
}
