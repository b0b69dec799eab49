package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// nominalRefMS is the reference kernel's time on the nominal host (the
// refkernel package's NominalMS). Host-normalized figures are reported as
// if the kernel had taken exactly this long next to them.
const nominalRefMS = 100.0

// refChecksum is the kernel's fixed output; a child that prints anything
// else is not the frozen kernel and the run is refused.
const refChecksum uint64 = 16619307720253013854

// refProc is the reference kernel running as a child process. Each Sample
// asks it for one timed run. The child's heap holds only the kernel's own
// data, so growing the program's caches cannot slow or speed the reference.
type refProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
	// samples is the series of every kernel time taken in this run, in
	// order, in milliseconds.
	samples []float64
}

func startRef(path string) (*refProc, error) {
	cmd := exec.Command(path)
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reference kernel %s: %w", path, err)
	}
	r := &refProc{cmd: cmd, in: in, out: bufio.NewReader(out)}
	// The first run pays page faults and heap growth; discard it.
	if _, err := r.sample(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// sample runs the kernel once and returns its time in milliseconds.
func (r *refProc) sample() (float64, error) {
	if _, err := io.WriteString(r.in, "r\n"); err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	line, err := r.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	f := strings.Fields(line)
	if len(f) != 2 {
		return 0, fmt.Errorf("reference kernel: bad reply %q", line)
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("reference kernel: bad time %q", f[0])
	}
	sum, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil || sum != refChecksum {
		return 0, fmt.Errorf("reference kernel: checksum %q, want %d", f[1], refChecksum)
	}
	return float64(ns) / 1e6, nil
}

// Sample takes one reference sample and records it in the run's series.
func (r *refProc) Sample() (float64, error) {
	ms, err := r.sample()
	if err != nil {
		return 0, err
	}
	r.samples = append(r.samples, ms)
	return ms, nil
}

// Close ends the child and waits for it to exit.
func (r *refProc) Close() {
	r.in.Close()
	if r.cmd != nil {
		_ = r.cmd.Wait()
	}
}

// normalizeMS converts a raw time measured where the reference kernel took
// refMS into milliseconds at nominal reference speed.
func normalizeMS(rawMS, refMS float64) float64 {
	return rawMS * nominalRefMS / refMS
}

// refWindow is how many reference samples on each side of a chunk enter
// its reference value. One 100 ms sample jitters by several percent; the
// host's speed drifts over tens of seconds. The median of the samples
// within a few chunks follows the drift without the jitter.
const refWindow = 2

// pacer brackets closed-loop work with reference samples. Work is timed in
// chunks of at least chunkMS raw milliseconds with a sample between
// consecutive chunks, taken while the program under test is idle. When the
// run ends, Finish normalizes every unit by the median of the samples
// around its chunk.
type pacer struct {
	sample  func() (float64, error)
	chunkMS float64
	refs    []float64
	chunks  [][]*unit
	open    []*unit
	openMS  float64
}

// unit is one timed piece of work whose normalized value Finish fills in.
type unit struct {
	rawMS  float64
	normMS float64
	// extra are further raw times in the same unit (per-spec latencies of
	// a batch) that are normalized with the same factor.
	extra     []float64
	normExtra []float64
}

func newPacer(sample func() (float64, error), chunkMS float64) (*pacer, error) {
	first, err := sample()
	if err != nil {
		return nil, err
	}
	return &pacer{sample: sample, chunkMS: chunkMS, refs: []float64{first}}, nil
}

// Add records a finished unit and closes the chunk once it is long enough.
func (p *pacer) Add(u *unit) error {
	p.open = append(p.open, u)
	p.openMS += u.rawMS
	if p.openMS >= p.chunkMS {
		return p.Flush()
	}
	return nil
}

// Flush closes the open chunk with a reference sample.
func (p *pacer) Flush() error {
	if len(p.open) == 0 {
		return nil
	}
	ref, err := p.sample()
	if err != nil {
		return err
	}
	p.refs = append(p.refs, ref)
	p.chunks = append(p.chunks, p.open)
	p.open, p.openMS = nil, 0
	return nil
}

// Finish closes the open chunk and normalizes every unit. Chunk i lies
// between samples i and i+1; its reference value is the median of samples
// i-refWindow .. i+1+refWindow.
func (p *pacer) Finish() error {
	if err := p.Flush(); err != nil {
		return err
	}
	for i, chunk := range p.chunks {
		lo, hi := max(0, i-refWindow), min(len(p.refs), i+2+refWindow)
		ref := median(p.refs[lo:hi])
		for _, u := range chunk {
			u.normMS = normalizeMS(u.rawMS, ref)
			u.normExtra = make([]float64, len(u.extra))
			for j, x := range u.extra {
				u.normExtra[j] = normalizeMS(x, ref)
			}
		}
	}
	return nil
}

// sinceMS is the time elapsed since t0 in milliseconds.
func sinceMS(t0 time.Time) float64 {
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
