// Command refkernel is the benchmark's host-speed reference. It runs a
// fixed, seeded workload that resembles the verification engines' memory
// and allocation profile — map churn, small allocations, pointer chasing
// and a sort — and reports how long each run took. The benchmark starts it
// as a child process and asks for one sample at a time, only while the
// program under test is idle, so the sample never shares a heap or a CPU
// burst with the code being measured.
//
// The kernel is frozen: changing it changes every normalized figure. Its
// checksum and nominal time are pinned by kernel_test.go.
//
// Protocol: each line read from standard input requests one run; each run
// answers with one line "<nanoseconds> <checksum>". End of input exits.
package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// NominalMS is the kernel's time on the reference host, in milliseconds.
// A figure reported "at nominal reference speed" is a raw time multiplied
// by NominalMS over the kernel time measured next to it.
const NominalMS = 100.0

// Checksum is the kernel's output, the same on every host.
const Checksum uint64 = 16619307720253013854

const (
	seed      = 0x9e3779b97f4a7c15
	mapKeys   = 1 << 15
	rounds    = 15
	listNodes = 1 << 15
	sortLen   = 1 << 15
)

type node struct {
	next *node
	val  uint64
	pad  [2]uint32
}

// xorshift is the kernel's own generator, so the input never depends on a
// library's random stream.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// Run executes the kernel once and returns its checksum.
func Run() uint64 {
	rng := xorshift(seed)
	var sum uint64

	// Map churn: insert, probe and delete in a bounded key space.
	m := make(map[uint64]uint32)
	for r := 0; r < rounds; r++ {
		for i := 0; i < mapKeys; i++ {
			k := rng.next() & (2*mapKeys - 1)
			if v, ok := m[k]; ok {
				sum += uint64(v)
				delete(m, k)
			} else {
				m[k] = uint32(i)
			}
		}
	}
	sum += uint64(len(m))

	// Small allocations linked in shuffled order, then chased.
	nodes := make([]*node, listNodes)
	for i := range nodes {
		nodes[i] = &node{val: rng.next()}
	}
	for i := len(nodes) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i := 0; i+1 < len(nodes); i++ {
		nodes[i].next = nodes[i+1]
	}
	head := nodes[0]
	nodes = nil
	for r := 0; r < rounds; r++ {
		for n := head; n != nil; n = n.next {
			sum += n.val >> uint(r)
			n.val ^= sum
		}
	}

	// A sort of slices of small structs.
	type rec struct {
		key uint64
		idx int32
	}
	recs := make([]rec, sortLen)
	for r := 0; r < rounds/2; r++ {
		for i := range recs {
			recs[i] = rec{key: rng.next() % (sortLen / 4), idx: int32(i)}
		}
		sort.Slice(recs, func(i, j int) bool {
			if recs[i].key != recs[j].key {
				return recs[i].key < recs[j].key
			}
			return recs[i].idx < recs[j].idx
		})
		sum = sum*31 + recs[len(recs)/2].key + uint64(recs[0].idx)
	}
	return sum
}

func main() {
	in := bufio.NewScanner(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	for in.Scan() {
		t0 := time.Now()
		sum := Run()
		fmt.Fprintf(out, "%d %d\n", time.Since(t0).Nanoseconds(), sum)
		if err := out.Flush(); err != nil {
			os.Exit(1)
		}
	}
}
