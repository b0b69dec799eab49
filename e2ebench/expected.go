package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"

	"paramring/internal/service"
	"paramring/internal/verify"
)

// expectedJSON holds the committed answers: a verdict code for every pool
// member and zoo spec, and the outcome of every synthesis task. It is
// written by `e2ebench -record` and read by every run.
//
//go:embed expected.json
var expectedJSON []byte

type expectedFile struct {
	// Pools maps a pool name to its families. Each family carries the
	// digest of its generated texts, so a generator change is caught
	// before any verdict is compared, and one verdict code per member.
	Pools map[string][]expectedFamily `json:"pools"`
	// Zoo maps "<spec>/<lanes>" to the verdict code, with the spec file's
	// digest in ZooDigests.
	Zoo        map[string]string `json:"zoo"`
	ZooDigests map[string]string `json:"zoo_digests"`
	// Synth maps a base name to "ok:<digest of the chosen transitions>"
	// or "none" (the methodology declares failure).
	Synth map[string]string `json:"synth"`
	// CostMS is the time of each single-spec pool member's verification
	// ("<pool>/<name>") and each synthesis base's synthesis
	// ("synth/<name>") when the answers were recorded. It is only used to
	// rank members into cost strata, so every seed draws the same cost mix.
	CostMS map[string]float64 `json:"cost_ms"`
}

type expectedFamily struct {
	Name     string   `json:"name"`
	Digest   string   `json:"digest"`
	Verdicts []string `json:"verdicts"`
}

func loadExpected() (*expectedFile, error) {
	var e expectedFile
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// poolAnswers generates a pool, checks every family digest against the
// committed one and returns the specs that have a committed answer, with
// their verdict codes index-aligned.
func (e *expectedFile) poolAnswers(key string, d poolDef) ([]poolSpec, []string, error) {
	specs, digests, err := genPool(d)
	if err != nil {
		return nil, nil, err
	}
	fams := map[string]expectedFamily{}
	for _, f := range e.Pools[key] {
		fams[f.Name] = f
	}
	if len(fams) == 0 {
		return nil, nil, fmt.Errorf("expected.json has no pool %s", key)
	}
	var out []poolSpec
	var codes []string
	next := map[string]int{}
	for _, s := range specs {
		f, ok := fams[s.Family]
		if !ok {
			continue // excluded when recorded (not a valid task)
		}
		if f.Digest != digests[s.Family] {
			return nil, nil, fmt.Errorf("pool %s family %s: texts digest %s, expected.json has %s", d.Name, s.Family, digests[s.Family], f.Digest)
		}
		i := next[s.Family]
		next[s.Family]++
		if i >= len(f.Verdicts) {
			return nil, nil, fmt.Errorf("pool %s family %s: no verdict for member %d", d.Name, s.Family, i)
		}
		out = append(out, s)
		codes = append(codes, f.Verdicts[i])
	}
	return out, codes, nil
}

// verdict is the part of a verification result that is checked: the same
// fields whether they come from a verify.Report or a service.Result.
type verdict struct {
	Deadlock, Livelock   string
	DeadlockK, LivelockK int
	ContiguousOnly       bool
	Skipped              bool
	Invariant            bool
	InvD, InvL, InvC     string
	ByInvariant          bool
	SelfStabilizing      bool
	Disagreements        []string
}

func verdictOfReport(r *verify.Report) verdict {
	v := verdict{
		Deadlock: r.Deadlock.String(), Livelock: r.Livelock.String(),
		DeadlockK: r.DeadlockWitnessK, LivelockK: r.LivelockWitnessK,
		ContiguousOnly: r.ContiguousOnly, Skipped: r.LivelockSkipped != "",
		Invariant: r.Invariant, ByInvariant: r.LivelockProvedByInvariant,
		SelfStabilizing: r.SelfStabilizing, Disagreements: r.Disagreements,
	}
	if r.Invariant {
		v.InvD, v.InvL, v.InvC = r.InvariantDeadlock.String(), r.InvariantLivelock.String(), r.InvariantClosure.String()
	}
	return v
}

func verdictOfResult(r *service.Result) verdict {
	return verdict{
		Deadlock: r.Deadlock, Livelock: r.Livelock,
		DeadlockK: r.DeadlockWitnessK, LivelockK: r.LivelockWitnessK,
		ContiguousOnly: r.ContiguousOnly, Skipped: r.LivelockSkipped != "",
		Invariant: r.InvariantLivelock != "",
		InvD:      r.InvariantDeadlock, InvL: r.InvariantLivelock, InvC: r.InvariantClosure,
		ByInvariant: r.LivelockProvedByInvariant, SelfStabilizing: r.SelfStabilizing,
		Disagreements: r.Disagreements,
	}
}

// code renders the verdict compactly: "<D><k>/<L><k>" plus flags — c for a
// contiguous-only livelock proof, x when Theorem 5.14 did not apply, and
// for the invariant lane "|<D><L><C>" with i when it proved livelock
// freedom. Self-stabilization and cross-lane disagreements are left out:
// they follow from the code and are checked separately.
func (v verdict) code() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%c%d/%c%d", initial(v.Deadlock), v.DeadlockK, initial(v.Livelock), v.LivelockK)
	if v.ContiguousOnly {
		b.WriteByte('c')
	}
	if v.Skipped {
		b.WriteByte('x')
	}
	if v.Invariant {
		fmt.Fprintf(&b, "|%c%c%c", initial(v.InvD), initial(v.InvL), initial(v.InvC))
		if v.ByInvariant {
			b.WriteByte('i')
		}
	}
	return b.String()
}

func initial(s string) byte {
	if s == "" {
		return '-'
	}
	return s[0]
}

// alarmMark suffixes a committed code whose spec trips the known false
// alarm under the workload's options.
const alarmMark = "!"

// knownAlarm is the disagreement verify.CheckCtx reports when the explicit
// engine finds a (non-contiguous) livelock on a ring whose Theorem 5.14
// verdict is Proved for contiguous livelocks only.
var knownAlarm = regexp.MustCompile(`^K=\d+: explicit livelock contradicts Theorem 5\.14 Proved$`)

// cleanSS is the self-stabilization verdict a code implies when no lane
// disagrees.
func cleanSS(code string) bool {
	c := strings.TrimSuffix(code, alarmMark)
	if !strings.HasPrefix(c, "p") {
		return false
	}
	thm, inv, _ := strings.Cut(c, "|")
	parts := strings.SplitN(thm, "/", 2)
	if len(parts) != 2 || !strings.HasPrefix(parts[1], "p") {
		return false
	}
	flags := strings.TrimLeft(parts[1][1:], "0123456789")
	return flags == "" || strings.HasSuffix(inv, "i")
}

// check compares a result with its committed code. A result is correct when
// the codes match and either no lane disagrees and self-stabilization is as
// the code implies, or the spec is marked with the known alarm and every
// disagreement is that alarm. A fix that removes the alarm still reads as
// correct; alarm reports whether this result carried it.
func check(want string, got verdict) (ok, alarm bool) {
	marked := strings.HasSuffix(want, alarmMark)
	if got.code() != strings.TrimSuffix(want, alarmMark) {
		return false, false
	}
	if len(got.Disagreements) == 0 {
		return got.SelfStabilizing == cleanSS(want), false
	}
	if !marked || got.SelfStabilizing {
		return false, false
	}
	for _, d := range got.Disagreements {
		if !knownAlarm.MatchString(d) {
			return false, false
		}
	}
	return true, true
}
