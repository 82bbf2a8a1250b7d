package ctmc

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"guardedop/internal/robust"
)

// TestUniformizationMaxIterationsCapsProducts pins the MaxIterations
// contract at its exact boundary: the cap counts matrix-vector products
// and is checked before each product, so a window needing exactly
// win.Right products completes under a cap of win.Right and fails under
// win.Right-1. The old placement (after the k >= win.Right break) made
// the default cap of win.Right+2 unreachable.
func TestUniformizationMaxIterationsCapsProducts(t *testing.T) {
	c := twoState(t, 100, 100)
	pi0, _ := c.PointMass(0)
	const horizon = 1.0
	// Reproduce the solver's window: q = maxExitRate * default padding.
	win, err := newPoissonWindow(c.MaxExitRate()*1.02*horizon, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	products := win.Right // the full window costs exactly win.Right products

	cases := []struct {
		name    string
		maxIter int
		wantErr bool
	}{
		{"default cap never fires", 0, false},
		{"cap exactly at window cost", products, false},
		{"cap one product short", products - 1, true},
		{"small explicit cap", 3, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := c.uniformize(context.Background(), pi0, horizon, UniformizationOptions{
				MaxIterations:               tc.maxIter,
				DisableSteadyStateDetection: true,
			}, false)
			if tc.wantErr {
				if !errors.Is(err, robust.ErrNotConverged) {
					t.Fatalf("MaxIterations=%d: got %v, want ErrNotConverged", tc.maxIter, err)
				}
			} else if err != nil {
				t.Fatalf("MaxIterations=%d: unexpected error %v", tc.maxIter, err)
			}
		})
	}
}

// TestUniformizationOptionValidation table-tests the degenerate option
// combinations that used to slip through withDefaults: negative or NaN
// fields must be rejected as invariant violations, not silently build a
// garbage DTMC (RatePadding) or disable steady-state detection
// (SteadyStateTol).
func TestUniformizationOptionValidation(t *testing.T) {
	c := twoState(t, 3, 1)
	pi0, _ := c.PointMass(0)

	cases := []struct {
		name string
		opts UniformizationOptions
	}{
		{"negative epsilon", UniformizationOptions{Epsilon: -1e-9}},
		{"epsilon at one", UniformizationOptions{Epsilon: 1}},
		{"NaN epsilon", UniformizationOptions{Epsilon: math.NaN()}},
		{"negative rate padding", UniformizationOptions{RatePadding: -0.5}},
		{"sub-unit rate padding", UniformizationOptions{RatePadding: 0.5}},
		{"NaN rate padding", UniformizationOptions{RatePadding: math.NaN()}},
		{"negative steady-state tol", UniformizationOptions{SteadyStateTol: -1e-14}},
		{"NaN steady-state tol", UniformizationOptions{SteadyStateTol: math.NaN()}},
		{"negative max iterations", UniformizationOptions{MaxIterations: -1}},
		{"several at once", UniformizationOptions{Epsilon: -1, RatePadding: -1, SteadyStateTol: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := c.uniformize(context.Background(), pi0, 1, tc.opts, false); !errors.Is(err, robust.ErrInvariant) {
				t.Fatalf("options %+v: got %v, want ErrInvariant", tc.opts, err)
			}
			if _, _, err := c.uniformize(context.Background(), pi0, 1, tc.opts, true); !errors.Is(err, robust.ErrInvariant) {
				t.Fatalf("accumulated with options %+v: got %v, want ErrInvariant", tc.opts, err)
			}
		})
	}

	// The all-zero options still resolve to the documented defaults.
	if _, _, err := c.uniformize(context.Background(), pi0, 1, UniformizationOptions{}, false); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
}

// TestPoissonWindowExtremeMean pins the fail-fast behavior at extreme
// qt: a mean of 1e18 used to run ~1e9 recurrence iterations growing an
// unbounded weights slice before the old mean+1e9 guard tripped. The
// width check must now reject it immediately.
func TestPoissonWindowExtremeMean(t *testing.T) {
	start := time.Now()
	_, err := newPoissonWindow(1e18, 1e-12)
	if !errors.Is(err, robust.ErrNotConverged) {
		t.Fatalf("mean 1e18: got %v, want ErrNotConverged", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("extreme mean took %v to reject; the guard must fail fast", elapsed)
	}

	// End to end through the solver entry point: an absurd q·t surfaces
	// the same typed error instead of grinding.
	c := twoState(t, 1e12, 1e12)
	pi0, _ := c.PointMass(0)
	if _, _, err := c.uniformize(context.Background(), pi0, 1e6, UniformizationOptions{}, false); !errors.Is(err, robust.ErrNotConverged) {
		t.Fatalf("qt=1e18 solve: got %v, want ErrNotConverged", err)
	}

	// Means inside the cap still build sane windows.
	win, err := newPoissonWindow(2e5, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if win.Right <= win.Left {
		t.Fatalf("bad window [%d, %d]", win.Left, win.Right)
	}
}
