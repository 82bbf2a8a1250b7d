package ctmc

import (
	"context"
	"fmt"

	"guardedop/internal/robust"
)

// uniformizationBudget is the largest q·t for which uniformization is chosen
// automatically. Beyond it (stiff horizons) the dense matrix exponential is
// asymptotically far cheaper: O(log2(qt)·n³) instead of O(qt·nnz).
const uniformizationBudget = 2e5

// denseTransientLimit is the largest state count for which the dense matrix
// exponential path is permitted under automatic selection.
const denseTransientLimit = 1024

// TransientContext computes π(t) choosing between uniformization and the
// dense matrix exponential based on the stiffness q·t and the chain size.
// The solver pass reports to the obs scope/tracer the context carries, so
// batch layers attribute the cost to the right run.
func (c *Chain) TransientContext(ctx context.Context, pi0 []float64, t float64) ([]float64, error) {
	if c.q*t <= uniformizationBudget || c.n > denseTransientLimit {
		pi, _, err := c.uniformize(ctx, pi0, t, UniformizationOptions{}, false)
		return pi, err
	}
	return c.transientExpm(ctx, pi0, t)
}

// AccumulatedContext computes ∫₀ᵗ π(u) du with the same automatic method
// selection as TransientContext.
func (c *Chain) AccumulatedContext(ctx context.Context, pi0 []float64, t float64) ([]float64, error) {
	if c.q*t <= uniformizationBudget || c.n > denseTransientLimit {
		_, acc, err := c.uniformize(ctx, pi0, t, UniformizationOptions{}, true)
		return acc, err
	}
	_, acc, err := c.transientAccumulatedExpm(ctx, pi0, t)
	return acc, err
}

// transientAccumulated computes π(t) and L(t) = ∫₀ᵗ π(u)du together in a
// single solver pass: the uniformization iteration produces both for one
// sweep of matrix-vector products, and the dense path reads both off one
// Van Loan augmented exponential. This halves the solver passes of callers
// that need an instant-of-time and an accumulated view at the same horizon
// (the curve engine's per-gap workload).
func (c *Chain) transientAccumulated(ctx context.Context, pi0 []float64, t float64) (pi, acc []float64, err error) {
	if c.q*t <= uniformizationBudget || c.n > denseTransientLimit {
		return c.uniformize(ctx, pi0, t, UniformizationOptions{}, true)
	}
	return c.transientAccumulatedExpm(ctx, pi0, t)
}

// TransientRewardContext returns Σ_s rates[s]·π_s(t): the expected
// instant-of-time reward at t for the rate-reward vector rates.
func (c *Chain) TransientRewardContext(ctx context.Context, pi0 []float64, t float64, rates []float64) (float64, error) {
	pi, err := c.TransientContext(ctx, pi0, t)
	if err != nil {
		return 0, err
	}
	return dotChecked(rates, pi)
}

// AccumulatedRewardContext returns Σ_s rates[s]·∫₀ᵗ π_s(u)du: the
// expected accumulated interval-of-time reward over [0, t].
func (c *Chain) AccumulatedRewardContext(ctx context.Context, pi0 []float64, t float64, rates []float64) (float64, error) {
	acc, err := c.AccumulatedContext(ctx, pi0, t)
	if err != nil {
		return 0, err
	}
	return dotChecked(rates, acc)
}

// SteadyStateReward returns Σ_s rates[s]·π_s for the stationary distribution.
func (c *Chain) SteadyStateReward(rates []float64, opts SteadyStateOptions) (float64, error) {
	pi, err := c.SteadyState(opts)
	if err != nil {
		return 0, err
	}
	return dotChecked(rates, pi)
}

func dotChecked(rates, pi []float64) (float64, error) {
	if len(rates) != len(pi) {
		return 0, errRewardLength(len(rates), len(pi))
	}
	sum := 0.0
	for i, r := range rates {
		sum += r * pi[i]
	}
	if err := robust.CheckFinite("reward", sum); err != nil {
		return 0, fmt.Errorf("ctmc: %w", err)
	}
	return sum, nil
}
