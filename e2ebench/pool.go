package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"paramring/internal/protogen"
)

// poolDef is one committed pool of generated specs: Families sweep
// families of one shape, each with Variants self-disabling members. The
// pool seed is fixed, so the texts are the same on every run and their
// verdicts are committed in expected.json; a workload's --seed only picks,
// orders and renames pool members.
type poolDef struct {
	Name        string
	Seed        int64
	Domain      int
	Lo, Hi      int
	Families    int
	Variants    int
	MovePercent int
}

var (
	// servePools are serve-light's four strata: domain 2-3, windows
	// [-1,0] and [-1,1].
	servePools = []poolDef{
		{Name: "sa", Seed: 1101, Domain: 2, Lo: -1, Hi: 0, Families: 12, Variants: 64},
		{Name: "sb", Seed: 1102, Domain: 3, Lo: -1, Hi: 0, Families: 12, Variants: 64},
		{Name: "sc", Seed: 1103, Domain: 2, Lo: -1, Hi: 1, Families: 12, Variants: 64},
		{Name: "sd", Seed: 1104, Domain: 3, Lo: -1, Hi: 1, Families: 12, Variants: 64},
	}
	// fleetPool holds fleet-cluster's batches: one family per batch of 64
	// same-shape siblings, domain 3, window [-1,1].
	fleetPool = poolDef{Name: "fl", Seed: 2201, Domain: 3, Lo: -1, Hi: 1, Families: 48, Variants: 64}
	// Design-heavy pools: synthesis bases in a light and a heavy stratum,
	// and 64-local-state specs for the all-lane verifier.
	synthLightPool = poolDef{Name: "yl", Seed: 3301, Domain: 3, Lo: -1, Hi: 0, Families: 24, Variants: 1, MovePercent: 30}
	synthHeavyPool = poolDef{Name: "yh", Seed: 3302, Domain: 4, Lo: -1, Hi: 0, Families: 24, Variants: 1, MovePercent: 10}
	wideSpecPool   = poolDef{Name: "dv", Seed: 3303, Domain: 4, Lo: -1, Hi: 1, Families: 32, Variants: 1, MovePercent: 15}
)

// poolSpec is one generated spec of a pool.
type poolSpec struct {
	Name   string
	Family string
	Source string
}

// genPool generates a pool's specs (family bases are dropped: they have no
// actions) and the digest of each family's texts.
func genPool(d poolDef) ([]poolSpec, map[string]string, error) {
	sw := &protogen.Sweep{Seed: d.Seed}
	for f := 0; f < d.Families; f++ {
		sw.Families = append(sw.Families, protogen.SweepFamily{
			Name: fmt.Sprintf("%s%02d", d.Name, f), Domain: d.Domain, Lo: d.Lo, Hi: d.Hi,
			Variants: d.Variants, MovePercent: d.MovePercent,
		})
	}
	specs, err := sw.Specs()
	if err != nil {
		return nil, nil, fmt.Errorf("pool %s: %w", d.Name, err)
	}
	var out []poolSpec
	hashes := map[string][]byte{}
	for _, s := range specs {
		if len(s.Deps) == 0 {
			continue
		}
		fam := s.Deps[0][:len(s.Deps[0])-len("-base")]
		out = append(out, poolSpec{Name: s.Name, Family: fam, Source: s.Source})
		h := sha256.Sum256(append(hashes[fam], s.Source...))
		hashes[fam] = h[:]
	}
	digests := map[string]string{}
	for fam, h := range hashes {
		digests[fam] = hex.EncodeToString(h[:8])
	}
	return out, digests, nil
}

// rename gives a pool spec a new protocol name. The verdict does not
// depend on the name, but the canonical text, and so every cache key, does:
// a renamed copy is a first submission to the service.
func rename(src, from, to string) string {
	return strings.Replace(src, "protocol "+from+"\n", "protocol "+to+"\n", 1)
}

// zooSpec is one file of the repository's specs/*.gc zoo.
type zooSpec struct {
	Name   string
	Source string
	Digest string
}

func loadZoo() ([]zooSpec, error) {
	files, err := filepath.Glob(filepath.Join("specs", "*.gc"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no specs/*.gc in %s: run from the repository root", mustGetwd())
	}
	sort.Strings(files)
	var out []zooSpec
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		h := sha256.Sum256(b)
		out = append(out, zooSpec{
			Name:   strings.TrimSuffix(filepath.Base(f), ".gc"),
			Source: string(b),
			Digest: hex.EncodeToString(h[:8]),
		})
	}
	return out, nil
}

func mustGetwd() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	return wd
}
