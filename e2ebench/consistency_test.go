package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// chdirRepoRoot runs the test from the repository root, where the
// benchmark runs and where specs/ and BENCHMARK.json are.
func chdirRepoRoot(t *testing.T) error {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(wd, "BENCHMARK.json")); err == nil {
		return nil
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
	return os.Chdir(filepath.Dir(wd))
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	if err := chdirRepoRoot(t); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationsMatchCode: BENCHMARK.json and the code declare the same
// workloads and the same metrics with the same units, in the same order.
func TestDeclarationsMatchCode(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i] {
			t.Fatalf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i])
		}
	}
	check := func(kind string, got []metricDef, names, units []string) {
		if len(names) != len(got) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the code %d", kind, len(names), len(got))
		}
		for i := range names {
			if names[i] != got[i].Name || units[i] != got[i].Unit {
				t.Fatalf("%s metric %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, names[i], units[i], got[i].Name, got[i].Unit)
			}
		}
	}
	var n, u []string
	for _, m := range d.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range d.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", perLayer, n, u)
}

// TestEveryWorkloadPrintsEveryMetric runs each workload briefly, traced,
// and checks that it computed every declared metric and that the result
// lines print exactly the declared ones with their units.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	loadDeclared(t)
	for _, w := range workloads {
		out, err := run(runCfg{Workload: w, Seed: 1, Seconds: 1, Trace: true, Ref: pipeRef(t, nominalRefMS)})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if out.Wrong != 0 || out.Failed != 0 {
			t.Fatalf("%s: %d wrong verdicts, %d failed of %d", w, out.Wrong, out.Failed, out.Attempted)
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				if _, ok := out.Metrics[d.Name]; !ok {
					t.Errorf("%s: metric %s not computed", w, d.Name)
				}
			}
		}
		for _, trace := range []bool{false, true} {
			line, err := resultLine(trace, out)
			if err != nil {
				t.Fatal(err)
			}
			var r struct {
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: %d metrics printed, %d declared", w, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Fatalf("%s trace=%v: %s printed as %+v, declared unit %s", w, trace, d.Name, m, d.Unit)
				}
			}
		}
	}
}
