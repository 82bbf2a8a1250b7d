package ctmc

import (
	"context"
	"fmt"
	"math"

	"guardedop/internal/obs"
	"guardedop/internal/robust"
	"guardedop/internal/sparse"
)

// padeTheta13 is the maximum infinity norm for which the order-13 Padé
// approximant achieves full double precision without scaling (Higham 2005).
const padeTheta13 = 5.371920351148152

// pade13Coeffs are the numerator coefficients of the [13/13] Padé
// approximant to the exponential.
var pade13Coeffs = [14]float64{
	64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
	129060195264000, 10559470521600, 670442572800, 33522128640,
	1323241920, 40840800, 960960, 16380, 182, 1,
}

// expm computes the matrix exponential e^A of a square dense matrix using
// the order-13 Padé approximant with scaling and squaring.
func expm(a *sparse.Dense) (*sparse.Dense, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("ctmc: expm needs a square matrix, got %dx%d", a.Rows(), a.Cols())
	}
	n := a.Rows()
	if n == 0 {
		return sparse.NewDense(0, 0), nil
	}

	norm := a.InfNorm()
	s := 0
	if norm > padeTheta13 {
		s = int(math.Ceil(math.Log2(norm / padeTheta13)))
	}
	scaled := a.Scale(math.Ldexp(1, -s))

	x, err := pade13(scaled)
	if err != nil {
		return nil, err
	}
	for i := 0; i < s; i++ {
		x = x.Mul(x)
	}
	return x, nil
}

// pade13 evaluates the [13/13] Padé approximant of e^A for ‖A‖∞ ≤ θ13.
func pade13(a *sparse.Dense) (*sparse.Dense, error) {
	n := a.Rows()
	b := pade13Coeffs
	ident := sparse.Identity(n)
	a2 := a.Mul(a)
	a4 := a2.Mul(a2)
	a6 := a4.Mul(a2)

	// U = A (A6 (b13 A6 + b11 A4 + b9 A2) + b7 A6 + b5 A4 + b3 A2 + b1 I)
	w1 := a6.Scale(b[13]).Add(a4.Scale(b[11])).Add(a2.Scale(b[9]))
	w2 := a6.Scale(b[7]).Add(a4.Scale(b[5])).Add(a2.Scale(b[3])).Add(ident.Scale(b[1]))
	u := a.Mul(a6.Mul(w1).Add(w2))

	// V = A6 (b12 A6 + b10 A4 + b8 A2) + b6 A6 + b4 A4 + b2 A2 + b0 I
	z1 := a6.Scale(b[12]).Add(a4.Scale(b[10])).Add(a2.Scale(b[8]))
	z2 := a6.Scale(b[6]).Add(a4.Scale(b[4])).Add(a2.Scale(b[2])).Add(ident.Scale(b[0]))
	v := a6.Mul(z1).Add(z2)

	// Solve (V - U) X = (V + U).
	num := v.Add(u)
	den := v.Add(u.Scale(-1))
	f, err := sparse.FactorLU(den)
	if err != nil {
		return nil, fmt.Errorf("ctmc: Padé denominator is singular: %w", err)
	}
	return f.SolveMatrix(num)
}

// transientExpm computes π(t) = π₀ e^{Qt} by dense matrix exponential. The
// pass counts against the context's solve scope and emits one "ctmc.expm"
// span.
func (c *Chain) transientExpm(ctx context.Context, pi0 []float64, t float64) ([]float64, error) {
	if err := c.checkDistribution(pi0); err != nil {
		return nil, err
	}
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("%w: t=%g", errNegativeTime, t)
	}
	if t == 0 {
		return append([]float64(nil), pi0...), nil
	}
	countSolveOp(ctx)
	_, sp := obs.StartSpan(ctx, "ctmc.expm")
	defer sp.End()
	sp.SetInt("states", int64(c.n))
	sp.SetFloat("t", t)
	qt := c.gen.ToDense().Scale(t)
	e, err := expm(qt)
	if err != nil {
		return nil, err
	}
	out := make([]float64, c.n)
	e.VecMul(out, pi0)
	clampProbabilities(out)
	if err := robust.CheckFiniteSlice("pi", out); err != nil {
		return nil, fmt.Errorf("ctmc: expm output: %w", err)
	}
	return out, nil
}

// transientAccumulatedExpm reads π(t) and L(t) off a single Van Loan
// augmented exponential: the (1,1) block of exp([[Q, I], [0, 0]] t) is
// e^{Qt} and the (1,2) block is ∫₀ᵗ e^{Qu}du, so one dense solver pass
// serves both the instant-of-time and the accumulated view.
func (c *Chain) transientAccumulatedExpm(ctx context.Context, pi0 []float64, t float64) (pi, acc []float64, err error) {
	if err := c.checkDistribution(pi0); err != nil {
		return nil, nil, err
	}
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, nil, fmt.Errorf("%w: t=%g", errNegativeTime, t)
	}
	n := c.n
	acc = make([]float64, n)
	if t == 0 {
		return append([]float64(nil), pi0...), acc, nil
	}
	countSolveOp(ctx)
	_, sp := obs.StartSpan(ctx, "ctmc.expm_vanloan")
	defer sp.End()
	sp.SetInt("states", int64(n))
	sp.SetFloat("t", t)
	aug := sparse.NewDense(2*n, 2*n)
	for r := 0; r < n; r++ {
		c.gen.Row(r, func(cc int, v float64) {
			aug.Set(r, cc, v*t)
		})
		aug.Set(r, n+r, t)
	}
	e, err := expm(aug)
	if err != nil {
		return nil, nil, err
	}
	pi = make([]float64, n)
	for j := 0; j < n; j++ {
		piSum, accSum := 0.0, 0.0
		for i := 0; i < n; i++ {
			piSum += pi0[i] * e.At(i, j)
			accSum += pi0[i] * e.At(i, n+j)
		}
		if accSum < 0 {
			accSum = 0
		}
		pi[j], acc[j] = piSum, accSum
	}
	clampProbabilities(pi)
	if err := robust.CheckFiniteSlice("pi", pi); err != nil {
		return nil, nil, fmt.Errorf("ctmc: augmented expm output: %w", err)
	}
	if err := robust.CheckFiniteSlice("acc", acc); err != nil {
		return nil, nil, fmt.Errorf("ctmc: augmented expm accumulated output: %w", err)
	}
	return pi, acc, nil
}

// clampProbabilities clips tiny negative round-off values to zero and
// renormalizes when the total is within round-off of one.
func clampProbabilities(v []float64) {
	sum := 0.0
	for i, x := range v {
		if x < 0 {
			if x < -1e-8 {
				// A genuinely negative probability indicates a solver bug;
				// leave it visible rather than papering over it.
				return
			}
			v[i] = 0
			x = 0
		}
		sum += x
	}
	if sum > 0 && math.Abs(sum-1) < 1e-6 {
		sparse.ScaleVec(v, 1/sum)
	}
}
