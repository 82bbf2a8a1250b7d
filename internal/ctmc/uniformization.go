package ctmc

import (
	"context"
	"fmt"
	"math"

	"guardedop/internal/obs"
	"guardedop/internal/robust"
	"guardedop/internal/sparse"
)

// UniformizationOptions tunes the uniformization transient solver.
type UniformizationOptions struct {
	// Epsilon is the permitted Poisson truncation error (default 1e-12).
	Epsilon float64
	// RatePadding multiplies the uniformization rate above max|Q_ii| to keep
	// the DTMC aperiodic; default 1.02.
	RatePadding float64
	// SteadyStateDetection stops the vector iteration once successive DTMC
	// iterates differ by less than SteadyStateTol in L1, folding the
	// remaining Poisson mass onto the converged vector. Default on.
	DisableSteadyStateDetection bool
	// SteadyStateTol is the detection threshold (default 1e-14).
	SteadyStateTol float64
	// MaxIterations caps the number of matrix-vector products; 0 means
	// a generous default derived from the Poisson window.
	MaxIterations int
}

// withDefaults resolves zero values and rejects degenerate settings.
// Every field is validated, not just defaulted: a negative RatePadding
// used to produce q < 0 and silently build a garbage uniformized DTMC,
// and a negative SteadyStateTol silently disabled steady-state detection
// (no iterate distance is < 0). Both now fail loudly as invariant
// violations instead of corrupting or degrading the solve.
func (o UniformizationOptions) withDefaults() (UniformizationOptions, error) {
	if o.Epsilon == 0 {
		o.Epsilon = 1e-12
	}
	if math.IsNaN(o.Epsilon) || o.Epsilon < 0 || o.Epsilon >= 1 {
		return o, fmt.Errorf("ctmc: uniformization Epsilon %g outside (0, 1): %w", o.Epsilon, robust.ErrInvariant)
	}
	if o.RatePadding == 0 {
		o.RatePadding = 1.02
	}
	// Padding below 1 is as broken as a negative value: q then undercuts
	// max|Q_ii| and the uniformized DTMC picks up negative diagonals.
	if math.IsNaN(o.RatePadding) || o.RatePadding < 1 {
		return o, fmt.Errorf("ctmc: uniformization RatePadding %g must be >= 1: %w", o.RatePadding, robust.ErrInvariant)
	}
	if o.SteadyStateTol == 0 {
		o.SteadyStateTol = 1e-14
	}
	if math.IsNaN(o.SteadyStateTol) || o.SteadyStateTol < 0 {
		return o, fmt.Errorf("ctmc: uniformization SteadyStateTol %g must be >= 0: %w", o.SteadyStateTol, robust.ErrInvariant)
	}
	if o.MaxIterations < 0 {
		return o, fmt.Errorf("ctmc: uniformization MaxIterations %d must be >= 0: %w", o.MaxIterations, robust.ErrInvariant)
	}
	return o, nil
}

// uniformize computes the state-probability vector π(t) from initial
// distribution pi0 by uniformization (t == 0 returns a copy of pi0). When
// wantAccumulated is true the second return value holds L(t) = ∫₀ᵗ π(u)du,
// the vector of expected total sojourn times per state over [0, t], by the
// complementary-CDF formula
//
//	L(t) = (1/q) Σ_k (1 − F(k; qt)) · π₀ Pᵏ
//
// where F is the Poisson CDF and P the uniformized DTMC matrix.
// One call is one solver pass: it counts against the context's solve-pass
// scope and, when a tracer is attached, emits one "ctmc.uniformize" span
// annotated with the state count, the Poisson truncation point, and the
// number of vector iterations actually spent.
func (c *Chain) uniformize(ctx context.Context, pi0 []float64, t float64, opts UniformizationOptions, wantAccumulated bool) ([]float64, []float64, error) {
	if err := c.checkDistribution(pi0); err != nil {
		return nil, nil, err
	}
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, nil, fmt.Errorf("%w: t=%g", errNegativeTime, t)
	}
	countSolveOp(ctx)
	_, sp := obs.StartSpan(ctx, "ctmc.uniformize")
	defer sp.End()
	sp.SetInt("states", int64(c.n))
	sp.SetFloat("t", t)
	iterations := 0
	defer func() { sp.SetInt("iterations", int64(iterations)) }()
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, nil, err
	}

	pi := append([]float64(nil), pi0...)
	acc := make([]float64, c.n)
	if t == 0 {
		return pi, acc, nil
	}
	q := c.q * opts.RatePadding
	if q == 0 {
		// All states absorbing: distribution never moves.
		if wantAccumulated {
			for i := range acc {
				acc[i] = pi0[i] * t
			}
		}
		return pi, acc, nil
	}

	win, err := newPoissonWindow(q*t, opts.Epsilon)
	if err != nil {
		return nil, nil, err
	}
	sp.SetInt("poisson_right", int64(win.Right))
	maxIter := opts.MaxIterations
	if maxIter == 0 {
		maxIter = win.Right + 2
	}

	p := c.uniformized(q)
	v := append([]float64(nil), pi0...) // v_k = pi0 * P^k
	next := make([]float64, c.n)
	out := make([]float64, c.n)

	// cdf tracks F(k) over the truncated window; accWeight tracks
	// Σ_{j<=k} (1-F(j))/q so steady-state folding can use t - accWeight.
	cdf := 0.0
	accWeight := 0.0
	for k := 0; ; k++ {
		wk := win.PMF(k)
		cdf += wk
		sparse.Axpy(out, wk, v)
		if wantAccumulated {
			ccdf := 1 - cdf
			if ccdf < 0 {
				ccdf = 0
			}
			sparse.Axpy(acc, ccdf/q, v)
			accWeight += ccdf / q
		}
		if k >= win.Right {
			break
		}
		// The cap is on matrix-vector products (the doc contract), so it is
		// checked against the product count immediately before the product.
		// Checking k after the window break made the guard dead under
		// defaults: maxIter = win.Right + 2 could never be reached once the
		// loop broke at k >= win.Right.
		if iterations >= maxIter {
			return nil, nil, fmt.Errorf("ctmc: uniformization exceeded %d matrix-vector products (qt=%g): %w",
				maxIter, q*t, robust.ErrNotConverged)
		}
		p.VecMul(next, v)
		iterations++
		if !opts.DisableSteadyStateDetection {
			if sparse.L1Dist(next, v) < opts.SteadyStateTol {
				sp.Event("steady_state_detected")
				// The DTMC iterates have converged; fold all remaining
				// Poisson mass (and accumulated weight) onto v.
				sparse.Axpy(out, 1-cdf, next)
				if wantAccumulated {
					rem := t - accWeight
					if rem > 0 {
						sparse.Axpy(acc, rem, next)
					}
				}
				copy(pi, out)
				return pi, acc, checkUniformized(pi, acc, wantAccumulated)
			}
		}
		v, next = next, v
	}
	copy(pi, out)
	return pi, acc, checkUniformized(pi, acc, wantAccumulated)
}

// checkUniformized guards the uniformization outputs against NaN/Inf
// contamination (which a pathological generator can smuggle through the
// vector iteration without tripping any intermediate check).
func checkUniformized(pi, acc []float64, wantAccumulated bool) error {
	if err := robust.CheckFiniteSlice("pi", pi); err != nil {
		return fmt.Errorf("ctmc: uniformization output: %w", err)
	}
	if wantAccumulated {
		if err := robust.CheckFiniteSlice("acc", acc); err != nil {
			return fmt.Errorf("ctmc: uniformization accumulated output: %w", err)
		}
	}
	return nil
}
