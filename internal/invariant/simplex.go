package invariant

import (
	"context"
	"errors"
	"math/big"
	"math/bits"
)

// errPivotLimit aborts a simplex run that exceeds its pivot budget.
var errPivotLimit = errors.New("invariant: simplex pivot limit exceeded")

// errLPOverflow aborts a simplex run whose integer tableau would leave the
// representable range. The tableau is exact or absent: there is no lossy
// fallback.
var errLPOverflow = errors.New("invariant: simplex tableau entry overflows int64")

const (
	// maxEntry bounds the magnitude of every stored tableau value. Keeping
	// stored values below 2^62 keeps the derived values (−u, −s and
	// D − obj_s) representable in int64.
	maxEntry = 1<<62 - 1
	// maxProductBits bounds the bit lengths of the two factors of every
	// product in a row update: their sum at most 62 keeps each product
	// below 2^62 and so the difference of two products inside int64.
	maxProductBits = 62
)

// solveStrict decides feasibility of the homogeneous strict system
// rows · x < 0 (componentwise) over free rational x, given as sparse rows
// over n variables, and returns a solution.
// Strict feasibility is scale-invariant, so it is decided as rows · x <= -1
// by a phase-1 simplex: free variables are split x_j = u_j - v_j, each row
// gains a slack and an artificial, and the artificial sum is minimized.
// Determinism: Dantzig's rule (ties broken by smallest column) switching to
// Bland's least-index rule — which cannot cycle — after half the pivot
// budget; ratio ties break toward the smallest basis index.
//
// The arithmetic is exact and fraction-free (Edmonds/Bareiss integer-
// preserving pivoting): the tableau holds int64 numerators over one common
// positive denominator D, and every update divides exactly. A row update
// whose products could pass 2^62, or an entry that would pass maxEntry,
// aborts the run with errLPOverflow.
func solveStrict(ctx context.Context, rows [][]lpTerm, n, maxPivots int) (sol []*big.Rat, feasible bool, pivots int, err error) {
	t, err := newTableau(rows, n)
	if err != nil {
		return nil, false, 0, err
	}
	bland := false
	for {
		if pivots%32 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, false, pivots, err
			}
		}
		e := t.entering(bland)
		if e < 0 {
			break // optimal
		}
		leave := t.leaving(e)
		if leave < 0 {
			// Phase 1 is bounded below by zero; an unbounded ray means the
			// tableau is corrupt.
			return nil, false, pivots, errors.New("invariant: phase-1 simplex unbounded")
		}
		if err := t.pivot(leave, e); err != nil {
			return nil, false, pivots, err
		}
		pivots++
		if pivots >= maxPivots {
			return nil, false, pivots, errPivotLimit
		}
		if !bland && pivots >= maxPivots/2 {
			bland = true
		}
	}
	if t.cells[t.m*t.w+t.w-1] != 0 {
		return nil, false, pivots, nil // artificials cannot be driven out: infeasible
	}
	sol = make([]*big.Rat, n)
	for j := range sol {
		sol[j] = new(big.Rat)
	}
	for i, b := range t.basis {
		switch {
		case b < n:
			sol[b].Add(sol[b], big.NewRat(t.rhs(i), t.d))
		case b < 2*n:
			sol[b-n].Sub(sol[b-n], big.NewRat(t.rhs(i), t.d))
		}
	}
	return sol, true, pivots, nil
}

// tableau is the phase-1 simplex tableau in fraction-free form. The columns
// are, in pivot-rule order, u_0..u_{n-1}, v_0..v_{n-1}, slack s_0..s_{m-1}
// and artificial a_0..a_{m-1}. Row i of rows·x <= -1, sign-flipped so the
// right-hand side is +1, reads
//
//	sum_j -r_ij·u_j + sum_j r_ij·v_j - s_i + a_i = 1.
//
// Pivoting is a sequence of row operations, so the linear relations among
// the initial columns persist: every row has v = −u and a = −s, and the
// objective row has obj_v = −obj_u and obj_a = D − obj_s (scaled from the
// rational obj_a + obj_s = 1). Only the u and s columns and the right-hand
// side are stored; the rest are derived on read.
type tableau struct {
	n, m int
	// w is the stored row width: n u-columns, m slack columns, the rhs.
	w int
	// cells holds m constraint rows and, last, the objective row, whose
	// rhs cell is −z·D for the artificial sum z. The rational tableau entry
	// is cell/d.
	cells []int64
	// mag[i] is the bitwise OR of row i's stored magnitudes, so its bit
	// length is that of the row's largest magnitude.
	mag   []uint64
	basis []int
	d     int64
}

func newTableau(rows [][]lpTerm, n int) (*tableau, error) {
	m := len(rows)
	t := &tableau{n: n, m: m, w: n + m + 1, mag: make([]uint64, m+1), basis: make([]int, m), d: 1}
	t.cells = make([]int64, (m+1)*t.w)
	obj := t.cells[m*t.w:]
	for i, r := range rows {
		row := t.cells[i*t.w : (i+1)*t.w]
		for _, term := range r {
			j, c := term.id, term.coef
			if c > maxEntry || c < -maxEntry {
				return nil, errLPOverflow
			}
			row[j] = -c
			// Reduced costs of the all-artificial basis (cost 1 on the
			// artificials): obj_j = −sum_i T[i][j].
			obj[j] += c
			if obj[j] > maxEntry || obj[j] < -maxEntry {
				return nil, errLPOverflow
			}
		}
		row[n+i] = -1
		row[t.w-1] = 1
		obj[n+i] = 1
		t.basis[i] = 2*n + m + i
	}
	obj[t.w-1] = -int64(m)
	for i := range t.mag {
		for _, x := range t.cells[i*t.w : (i+1)*t.w] {
			t.mag[i] |= uabs(x)
		}
	}
	return t, nil
}

// stored maps a column of the full u, v, s, a order to its stored column and
// the sign that relates them.
func (t *tableau) stored(c int) (int, int64) {
	switch {
	case c < t.n:
		return c, 1
	case c < 2*t.n:
		return c - t.n, -1
	case c < 2*t.n+t.m:
		return c - t.n, 1
	default:
		return c - t.n - t.m, -1
	}
}

// at returns the numerator of constraint row i in column c.
func (t *tableau) at(i, c int) int64 {
	j, sign := t.stored(c)
	return sign * t.cells[i*t.w+j]
}

// rhs returns the numerator of constraint row i's right-hand side.
func (t *tableau) rhs(i int) int64 { return t.cells[i*t.w+t.w-1] }

// objAt returns the numerator of column c's reduced cost.
func (t *tableau) objAt(c int) int64 {
	j, sign := t.stored(c)
	o := t.cells[t.m*t.w+j]
	if c >= 2*t.n+t.m {
		return t.d - o
	}
	return sign * o
}

// entering picks the entering column, or -1 at optimality. Reduced costs
// share the positive denominator D, so numerators compare directly.
func (t *tableau) entering(bland bool) int {
	e, best := -1, int64(0)
	for c := 0; c < 2*t.n+2*t.m; c++ {
		r := t.objAt(c)
		if bland {
			if r < 0 {
				return c
			}
			continue
		}
		if r < best {
			best, e = r, c
		}
	}
	return e
}

// leaving runs the ratio test on entering column e, comparing
// rhs_i/T[i][e] by cross-multiplication, and returns the leaving row or -1.
func (t *tableau) leaving(e int) int {
	leave := -1
	var lb, lc uint64
	for i := 0; i < t.m; i++ {
		c := t.at(i, e)
		if c <= 0 {
			continue
		}
		// A feasible basis keeps every rhs >= 0, so both products are
		// non-negative 128-bit values.
		b := uint64(t.rhs(i))
		if leave >= 0 {
			h1, l1 := bits.Mul64(b, lc)
			h2, l2 := bits.Mul64(lb, uint64(c))
			if h1 > h2 || h1 == h2 && l1 > l2 || h1 == h2 && l1 == l2 && t.basis[i] > t.basis[leave] {
				continue
			}
		}
		leave, lb, lc = i, b, uint64(c)
	}
	return leave
}

// pivot makes column e basic in row r. The pivot row is kept as it is;
// every other row x, with entering-column entry f, becomes (p·x − f·y)/D
// for pivot element p and pivot-row entry y, which divides exactly; then
// D = p. Before a row is updated, the bit lengths of p and of the row's
// largest magnitude, and of f and of the pivot row's, are checked against
// maxProductBits, so the update itself needs no per-entry checks.
func (t *tableau) pivot(r, e int) error {
	p := t.at(r, e)
	pr := t.cells[r*t.w : (r+1)*t.w]
	pBits, prBits := bits.Len64(uabs(p)), bits.Len64(t.mag[r])
	k, inv := exactDivisor(t.d)
	for i := 0; i <= t.m; i++ {
		if i == r {
			continue
		}
		var f int64
		if i < t.m {
			f = t.at(i, e)
		} else {
			f = t.objAt(e)
		}
		if pBits+bits.Len64(t.mag[i]) > maxProductBits || bits.Len64(uabs(f))+prBits > maxProductBits {
			return errLPOverflow
		}
		mag := updateRow(t.cells[i*t.w:(i+1)*t.w], pr, p, f, k, inv)
		if mag > maxEntry {
			return errLPOverflow
		}
		t.mag[i] = mag
	}
	t.d = p
	t.basis[r] = e
	return nil
}

// updateRow sets row = (p·row − f·pr)/d, which the caller has bounded to
// stay inside int64, and returns the OR of the new magnitudes. The division
// is exact, so it is done as a shift by d's power of two (k) and a
// multiplication by the inverse of d's odd part modulo 2^64 (inv).
func updateRow(row, pr []int64, p, f int64, k uint, inv int64) uint64 {
	var mag uint64
	row = row[:len(pr)]
	for j, y := range pr {
		x := ((p*row[j] - f*y) >> k) * inv
		row[j] = x
		mag |= uabs(x)
	}
	return mag
}

// exactDivisor splits d > 0 into its power of two 2^k and the inverse of its
// odd part modulo 2^64, for updateRow.
func exactDivisor(d int64) (k uint, inv int64) {
	k = uint(bits.TrailingZeros64(uint64(d)))
	odd := d >> k
	inv = odd // correct to 3 bits; each Newton step doubles that
	for i := 0; i < 5; i++ {
		inv *= 2 - odd*inv
	}
	return k, inv
}

// uabs returns |x| as a uint64 (exact for every int64, math.MinInt64
// included).
func uabs(x int64) uint64 {
	s := x >> 63
	return uint64((x ^ s) - s)
}
