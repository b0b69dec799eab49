package invariant

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"paramring/internal/core"
)

// solveStrictRat is the reference oracle for solveStrict: the same phase-1
// simplex and pivot rules over a dense tableau of exact big.Rat values, with
// every column stored. It is the solver the fraction-free int64 tableau
// replaced; the differential tests below hold the two to the same
// feasibility verdict, pivot count and rational solution.
func solveStrictRat(ctx context.Context, rows [][]int64, n, maxPivots int) (sol []*big.Rat, feasible bool, pivots int, err error) {
	m := len(rows)
	if m == 0 {
		sol = make([]*big.Rat, n)
		for i := range sol {
			sol[i] = new(big.Rat)
		}
		return sol, true, 0, nil
	}
	// Columns: u_0..u_{n-1}, v_0..v_{n-1}, slack s_0..s_{m-1}, artificial
	// a_0..a_{m-1}. Row i of rows·x <= -1, sign-flipped so the RHS is +1:
	//
	//	sum_j -r_ij·u_j + sum_j r_ij·v_j - s_i + a_i = 1.
	cols := 2*n + 2*m
	T := make([][]*big.Rat, m)
	rhs := make([]*big.Rat, m)
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		T[i] = make([]*big.Rat, cols)
		for j := range T[i] {
			T[i][j] = new(big.Rat)
		}
		for j := 0; j < n && j < len(rows[i]); j++ {
			if c := rows[i][j]; c != 0 {
				T[i][j].Neg(new(big.Rat).SetInt64(c))
				T[i][n+j].SetInt64(c)
			}
		}
		T[i][2*n+i].SetInt64(-1)
		T[i][2*n+m+i].SetInt64(1)
		rhs[i] = big.NewRat(1, 1)
		basis[i] = 2*n + m + i
	}
	// Reduced costs for the all-artificial starting basis (cost 1 on
	// artificials, 0 elsewhere): obj_j = -sum_i T[i][j] on non-artificial
	// columns, 0 on artificial columns; objective value starts at m.
	obj := make([]*big.Rat, cols)
	for j := 0; j < cols; j++ {
		obj[j] = new(big.Rat)
		if j < 2*n+m {
			for i := 0; i < m; i++ {
				obj[j].Sub(obj[j], T[i][j])
			}
		}
	}
	objVal := new(big.Rat).SetInt64(int64(m))

	bland := false
	for {
		if pivots%32 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, false, pivots, err
			}
		}
		e := -1
		if bland {
			for j := 0; j < cols; j++ {
				if obj[j].Sign() < 0 {
					e = j
					break
				}
			}
		} else {
			best := new(big.Rat)
			for j := 0; j < cols; j++ {
				if obj[j].Cmp(best) < 0 {
					best.Set(obj[j])
					e = j
				}
			}
		}
		if e < 0 {
			break // optimal
		}
		leave := -1
		ratio := new(big.Rat)
		for i := 0; i < m; i++ {
			if T[i][e].Sign() <= 0 {
				continue
			}
			r := new(big.Rat).Quo(rhs[i], T[i][e])
			if leave < 0 || r.Cmp(ratio) < 0 ||
				(r.Cmp(ratio) == 0 && basis[i] < basis[leave]) {
				leave = i
				ratio = r
			}
		}
		if leave < 0 {
			return nil, false, pivots, errors.New("invariant: phase-1 simplex unbounded")
		}
		pivotRat(T, rhs, obj, objVal, basis, leave, e)
		pivots++
		if pivots >= maxPivots {
			return nil, false, pivots, errPivotLimit
		}
		if !bland && pivots >= maxPivots/2 {
			bland = true
		}
	}
	if objVal.Sign() != 0 {
		return nil, false, pivots, nil
	}
	sol = make([]*big.Rat, n)
	for j := range sol {
		sol[j] = new(big.Rat)
	}
	for i, b := range basis {
		switch {
		case b < n:
			sol[b].Add(sol[b], rhs[i])
		case b < 2*n:
			sol[b-n].Sub(sol[b-n], rhs[i])
		}
	}
	return sol, true, pivots, nil
}

// pivotRat performs one rational tableau pivot: row li leaves the basis,
// column e enters.
func pivotRat(T [][]*big.Rat, rhs, obj []*big.Rat, objVal *big.Rat, basis []int, li, e int) {
	piv := new(big.Rat).Set(T[li][e])
	for j := range T[li] {
		if T[li][j].Sign() != 0 {
			T[li][j].Quo(T[li][j], piv)
		}
	}
	rhs[li].Quo(rhs[li], piv)
	tmp := new(big.Rat)
	for i := range T {
		if i == li || T[i][e].Sign() == 0 {
			continue
		}
		f := new(big.Rat).Set(T[i][e])
		for j := range T[i] {
			if T[li][j].Sign() == 0 {
				continue
			}
			T[i][j].Sub(T[i][j], tmp.Mul(f, T[li][j]))
		}
		rhs[i].Sub(rhs[i], tmp.Mul(f, rhs[li]))
	}
	if obj[e].Sign() != 0 {
		f := new(big.Rat).Set(obj[e])
		for j := range obj {
			if T[li][j].Sign() == 0 {
				continue
			}
			obj[j].Sub(obj[j], tmp.Mul(f, T[li][j]))
		}
		// z moves by the entering column's reduced cost times its step:
		// z <- z + f * rhs'[li] (f < 0, rhs' >= 0, so z decreases).
		objVal.Add(objVal, tmp.Mul(f, rhs[li]))
	}
	basis[li] = e
}

func feasibleStrict(t *testing.T, rows [][]int64, n int) (sol []*big.Rat, ok bool) {
	t.Helper()
	sol, ok, _, err := solveStrict(context.Background(), sparseRows(rows), n, 100000)
	if err != nil {
		t.Fatalf("solveStrict: %v", err)
	}
	return sol, ok
}

func TestSolveStrictBasics(t *testing.T) {
	cases := []struct {
		name string
		rows [][]int64
		n    int
		want bool
	}{
		{"empty system", nil, 3, true},
		{"single variable", [][]int64{{1}}, 1, true},
		{"contradictory pair", [][]int64{{1}, {-1}}, 1, false},
		{"antisymmetric", [][]int64{{1, -1}, {-1, 1}}, 2, false},
		{"triangular", [][]int64{{1, 0}, {1, -1}}, 2, true},
		{"zero row", [][]int64{{0, 0}}, 2, false},
		{"chain", [][]int64{{1, -1, 0}, {0, 1, -1}}, 3, true},
		{"cycle sums to zero", [][]int64{{1, -1, 0}, {0, 1, -1}, {-1, 0, 1}}, 3, false},
	}
	for _, tc := range cases {
		sol, ok := feasibleStrict(t, tc.rows, tc.n)
		if ok != tc.want {
			t.Errorf("%s: feasible = %v, want %v", tc.name, ok, tc.want)
		}
		if ok {
			assertStrict(t, tc.name, tc.rows, sol)
		}
	}
}

func assertStrict(t *testing.T, name string, rows [][]int64, sol []*big.Rat) {
	t.Helper()
	for ri, row := range rows {
		sum := new(big.Rat)
		for j, c := range row {
			if c != 0 {
				sum.Add(sum, new(big.Rat).Mul(big.NewRat(c, 1), sol[j]))
			}
		}
		if sum.Sign() >= 0 {
			t.Errorf("%s: row %d: %v · sol = %v, want < 0", name, ri, row, sum)
		}
	}
}

// TestSolveStrictRandomFeasible plants a random solution, builds rows it
// strictly satisfies, and requires the solver to find a (possibly
// different) strict solution.
func TestSolveStrictRandomFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		planted := make([]int64, n)
		for j := range planted {
			planted[j] = int64(rng.Intn(21) - 10)
		}
		m := 1 + rng.Intn(12)
		rows := make([][]int64, 0, m)
		for len(rows) < m {
			row := make([]int64, n)
			var dot int64
			for j := range row {
				row[j] = int64(rng.Intn(7) - 3)
				dot += row[j] * planted[j]
			}
			if dot == 0 {
				continue // flipping cannot make it strict; resample
			}
			if dot > 0 {
				for j := range row {
					row[j] = -row[j]
				}
			}
			rows = append(rows, row)
		}
		sol, ok := feasibleStrict(t, rows, n)
		if !ok {
			t.Fatalf("trial %d: planted-feasible system reported infeasible (planted %v, rows %v)",
				trial, planted, rows)
		}
		assertStrict(t, "random", rows, sol)
	}
}

// TestSolveStrictRandomInfeasible embeds a positive combination that sums
// to zero (row + its negation), which no strict solution can satisfy.
func TestSolveStrictRandomInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		m := rng.Intn(8)
		var rows [][]int64
		for i := 0; i < m; i++ {
			row := make([]int64, n)
			for j := range row {
				row[j] = int64(rng.Intn(7) - 3)
			}
			rows = append(rows, row)
		}
		row := make([]int64, n)
		for j := range row {
			row[j] = int64(rng.Intn(7) - 3)
		}
		neg := make([]int64, n)
		for j := range row {
			neg[j] = -row[j]
		}
		rows = append(rows, row, neg)
		if _, ok := feasibleStrict(t, rows, n); ok {
			t.Fatalf("trial %d: infeasible system reported feasible (rows %v)", trial, rows)
		}
	}
}

// TestSolveStrictDeterministic pins that repeated solves return the
// identical solution vector.
func TestSolveStrictDeterministic(t *testing.T) {
	rows := [][]int64{{1, -1, 0, 2}, {0, 1, -1, -1}, {2, 0, 1, -3}, {-1, 2, 0, -1}}
	first, ok := feasibleStrict(t, rows, 4)
	if !ok {
		t.Fatalf("system unexpectedly infeasible")
	}
	for i := 0; i < 5; i++ {
		again, ok := feasibleStrict(t, rows, 4)
		if !ok {
			t.Fatalf("rerun %d infeasible", i)
		}
		for j := range first {
			if first[j].Cmp(again[j]) != 0 {
				t.Fatalf("rerun %d: sol[%d] = %v, first run %v", i, j, again[j], first[j])
			}
		}
	}
}

// sparseRows converts dense test rows to the solver's sparse form.
func sparseRows(rows [][]int64) [][]lpTerm {
	out := make([][]lpTerm, len(rows))
	for i, r := range rows {
		for j, c := range r {
			if c != 0 {
				out[i] = append(out[i], lpTerm{j, c})
			}
		}
	}
	return out
}

// lpOf builds the termination LP the lane would solve for p, as dense rows,
// or reports that the analysis stops before building one.
func lpOf(t testing.TB, p *core.Protocol) (rows [][]int64, n int, ok bool) {
	t.Helper()
	a, err := newAnalysis(p, Options{}.withDefaults())
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	rec := recurrentArcs(a.sys)
	if len(rec) == 0 {
		return nil, 0, false
	}
	sparse, n, _, err := a.potentialRows(context.Background(), rec, a.opts.MaxConstraints)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	rows = make([][]int64, len(sparse))
	for i, r := range sparse {
		rows[i] = make([]int64, n)
		for _, term := range r {
			rows[i][term.id] = term.coef
		}
	}
	return rows, n, true
}

// assertMatchesRational solves one LP with both solvers and requires the
// same outcome: the same error, feasibility verdict, pivot count and exact
// rational solution. With allowOverflow, errLPOverflow from the int64
// solver is also accepted.
func assertMatchesRational(t *testing.T, name string, rows [][]int64, n, maxPivots int, allowOverflow bool) {
	t.Helper()
	ctx := context.Background()
	sol, ok, piv, err := solveStrict(ctx, sparseRows(rows), n, maxPivots)
	if err == errLPOverflow && allowOverflow {
		return
	}
	rsol, rok, rpiv, rerr := solveStrictRat(ctx, rows, n, maxPivots)
	if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
		t.Fatalf("%s: error %v, oracle error %v", name, err, rerr)
	}
	if ok != rok || piv != rpiv {
		t.Fatalf("%s: feasible=%v after %d pivots, oracle feasible=%v after %d", name, ok, piv, rok, rpiv)
	}
	if len(sol) != len(rsol) {
		t.Fatalf("%s: %d solution values, oracle %d", name, len(sol), len(rsol))
	}
	for j := range sol {
		if sol[j].Cmp(rsol[j]) != 0 {
			t.Fatalf("%s: sol[%d] = %v, oracle %v", name, j, sol[j], rsol[j])
		}
	}
	if ok {
		assertStrict(t, name, rows, sol)
	}
}

// TestSolveStrictMatchesRational holds the int64 solver to the rational
// oracle on every LP the lane builds for the zoo and the pinned sweep
// (none may overflow), and on random LPs with small coefficients.
func TestSolveStrictMatchesRational(t *testing.T) {
	for _, c := range goldenProtocols(t) {
		rows, n, ok := lpOf(t, c.p)
		if !ok {
			continue
		}
		assertMatchesRational(t, c.name, rows, n, Options{}.withDefaults().MaxPivots, false)
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		rows := make([][]int64, rng.Intn(16))
		for i := range rows {
			rows[i] = make([]int64, n)
			for j := range rows[i] {
				rows[i][j] = int64(rng.Intn(9) - 4)
			}
		}
		assertMatchesRational(t, "random", rows, n, 2000, false)
	}
}

// TestSolveStrictOverflow pins that coefficients too large for the int64
// tableau end in errLPOverflow, whether at construction or mid-pivot,
// while the rational oracle still solves the same LPs; and that LPs with
// large coefficients whose tableau stays within int64 still match the
// oracle.
func TestSolveStrictOverflow(t *testing.T) {
	const huge = 1 << 40
	cases := []struct {
		name string
		rows [][]int64
		n    int
	}{
		{"coefficient beyond 2^62", [][]int64{{1 << 62, -1}}, 2},
		{"reduced cost beyond 2^62", [][]int64{{1 << 61, 0}, {1 << 61, 0}}, 2},
		{"products beyond int64", [][]int64{
			{huge + 1, -huge, 3},
			{-huge, huge + 3, -huge + 5},
			{7, -huge - 11, huge + 13},
		}, 3},
	}
	for _, tc := range cases {
		_, _, _, err := solveStrict(context.Background(), sparseRows(tc.rows), tc.n, 1000)
		if err != errLPOverflow {
			t.Errorf("%s: err = %v, want errLPOverflow", tc.name, err)
		}
		if _, _, _, err := solveStrictRat(context.Background(), tc.rows, tc.n, 1000); err != nil {
			t.Errorf("%s: oracle: %v", tc.name, err)
		}
	}
	for _, rows := range [][][]int64{
		{{1 << 30, -1}},
		{{1 << 29, 1}, {1, -2}, {-1, 1}},
		{{1<<20 + 3, -(1 << 20)}, {-5, 7}},
	} {
		assertMatchesRational(t, "large coefficients", rows, 2, 1000, false)
	}
}

// TestPivotRefusesOverflow forces one pivot (row 1, column u_0) whose true
// row update leaves the range pivot may store, and requires errLPOverflow:
// once for a product past int64 that only the pivot row's magnitude, not
// the updated row's, reveals, and once for an exact result past 2^62 from
// two products that each pass the bit-length bound.
func TestPivotRefusesOverflow(t *testing.T) {
	const c = 1<<31 - 1
	for _, tc := range []struct {
		name string
		rows [][]int64
	}{
		{"product past int64", [][]int64{{-(1 << 30), 0}, {-1, -(1 << 40)}}},
		{"entry past 2^62", [][]int64{{-c, -c}, {-c, c}, {c, 0}, {c, 0}}},
	} {
		tab, err := newTableau(sparseRows(tc.rows), 2)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := tab.pivot(1, 0); err != errLPOverflow {
			t.Errorf("%s: pivot err = %v, want errLPOverflow", tc.name, err)
		}
	}
}

// fuzzLP decodes fuzz bytes into an LP: data[0] picks the variable count,
// data[1] the row count and data[2] a power-of-two scale for every
// coefficient (up to 2^56, so -128·2^56 reaches math.MinInt64); each further
// byte is one coefficient as an int8, missing bytes reading as 0.
func fuzzLP(data []byte) (rows [][]int64, n int) {
	if len(data) < 3 {
		return nil, 1
	}
	n, m, shift := 1+int(data[0]%6), int(data[1]%10), uint(data[2]%57)
	data = data[3:]
	rows = make([][]int64, m)
	for i := range rows {
		rows[i] = make([]int64, n)
		for j := range rows[i] {
			if k := i*n + j; k < len(data) {
				rows[i][j] = int64(int8(data[k])) << shift
			}
		}
	}
	return rows, n
}

// FuzzSolveStrict is the differential target for the fraction-free int64
// solver against the big.Rat oracle: on every decoded LP they agree on
// feasibility, pivot count and solution, or the int64 solver returns
// errLPOverflow. testdata/fuzz/FuzzSolveStrict holds the committed seeds:
// small-coefficient LPs, one just inside the product bound, large-coefficient
// ones that overflow, and LPs that would go wrong with a looser bound (a
// product past int64, a difference of products past int64, entries that
// outgrow the bound within a few pivots).
func FuzzSolveStrict(f *testing.F) {
	f.Add([]byte{2, 3, 0, 1, 255, 0, 1, 255, 1})
	f.Add([]byte{3, 4, 0, 1, 2, 3, 253, 0, 7, 4, 255, 252, 0, 1, 1})
	f.Add([]byte{3, 3, 40, 1, 0, 255, 0, 1, 255, 255, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, n := fuzzLP(data)
		assertMatchesRational(t, "fuzz", rows, n, 500, true)
	})
}

// TestExactDivisor pins the shift-and-inverse division updateRow relies on:
// for every exact multiple x = q·d it returns q.
func TestExactDivisor(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10000; trial++ {
		d := 1 + rng.Int63n(1<<30)
		if trial%4 == 0 {
			d <<= uint(rng.Intn(20))
		}
		lim := (1 << 62) / d // keep q·d below 2^62, as a bounded row update does
		q := rng.Int63n(2*lim) - lim
		k, inv := exactDivisor(d)
		if got := ((q * d) >> k) * inv; got != q {
			t.Fatalf("%d/%d = %d, want %d", q*d, d, got, q)
		}
	}
}
