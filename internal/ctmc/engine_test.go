package ctmc

import (
	"context"
	"errors"
	"math"
	"testing"

	"guardedop/internal/robust"
	"guardedop/internal/sparse"
)

// The drift renormalization must accept round-off growth proportional to the
// number of propagation steps taken, and reject the same deviation when no
// steps can explain it — with a typed, classifiable error either way.
func TestPropagateDriftBudgetScalesWithSteps(t *testing.T) {
	drifted := []float64{0.7, 0.3 + 3e-6} // mass 1 + 3e-6, past the 1e-6 floor

	// At step zero nothing can explain the drift: typed rejection.
	if _, err := renormalizeDrift(drifted, 0); err == nil {
		t.Fatal("drift beyond the floor accepted at step 0")
	} else if !errors.Is(err, robust.ErrNonFinite) {
		t.Fatalf("drift rejection not classifiable as ErrNonFinite: %v", err)
	}

	// After 3000 incremental steps the same drift is within budget
	// (1e-6 + 3000·1e-9 = 4e-6): renormalize and keep going.
	got, err := renormalizeDrift(drifted, 3000)
	if err != nil {
		t.Fatalf("round-off drift rejected despite step budget: %v", err)
	}
	total := drifted[0] + drifted[1]
	for i, v := range drifted {
		if got[i] != v/total {
			t.Errorf("renormalized[%d] = %.17g, want %.17g", i, got[i], v/total)
		}
	}

	// Destroyed mass is never renormalizable, at any step count.
	for _, bad := range [][]float64{{math.NaN(), 0.5}, {math.Inf(1), 0.5}, {-0.5, 0.5}} {
		if _, err := renormalizeDrift(bad, 1e6); !errors.Is(err, robust.ErrNonFinite) {
			t.Errorf("mass %v: got %v, want ErrNonFinite", bad, err)
		}
	}
}

// Regression for the old fixed 1e-6 cutoff: a long many-gap series must
// survive whatever drift its own propagation accrues instead of the solver
// rejecting its own output mid-series.
func TestTransientSeriesLongManyGapGrid(t *testing.T) {
	c := birthDeath(t, 8, 2.0, 3.0)
	pi0, _ := c.PointMass(0)
	ts := make([]float64, 1500)
	for i := range ts {
		ts[i] = 0.01 * float64(i+1)
	}
	series, err := c.TransientSeriesContext(context.Background(), pi0, ts)
	if err != nil {
		t.Fatalf("many-gap series failed: %v", err)
	}
	lastT := ts[len(ts)-1]
	want, err := c.TransientContext(context.Background(), pi0, lastT)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.L1Dist(series[len(ts)-1], want); d > 1e-8 {
		t.Errorf("after %d gaps, series deviates from direct solve by %g", len(ts), d)
	}
}

func TestAccumulatedSeriesMatchesPointwise(t *testing.T) {
	c := birthDeath(t, 6, 2.0, 3.0)
	pi0, _ := c.PointMass(0)
	ts := []float64{5, 0.5, 2, 0, 5} // unsorted, duplicate, zero
	_, accs, err := c.TransientAccumulatedSeriesContext(context.Background(), pi0, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		want, err := c.AccumulatedContext(context.Background(), pi0, tt)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.L1Dist(accs[i], want); d > 1e-8*(1+tt) {
			t.Errorf("t=%v: accumulated series deviates by %g", tt, d)
		}
	}
	if sparse.L1Dist(accs[0], accs[4]) != 0 {
		t.Error("duplicate time points differ")
	}
	// Total accumulated sojourn must equal the elapsed horizon exactly
	// (mass conservation through the incremental pass).
	for i, tt := range ts {
		if math.Abs(sparse.Sum(accs[i])-tt) > 1e-8*(1+tt) {
			t.Errorf("t=%v: sum L(t) = %v", tt, sparse.Sum(accs[i]))
		}
	}
}

func TestTransientAccumulatedSeriesConsistent(t *testing.T) {
	c := birthDeath(t, 6, 2.0, 3.0)
	pi0, _ := c.PointMass(0)
	ts := []float64{0.5, 3, 1, 7}
	pis, _, err := c.TransientAccumulatedSeriesContext(context.Background(), pi0, ts)
	if err != nil {
		t.Fatal(err)
	}
	wantPis, err := c.TransientSeriesContext(context.Background(), pi0, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts {
		if d := sparse.L1Dist(pis[i], wantPis[i]); d > 1e-9 {
			t.Errorf("t=%v: combined pi deviates by %g", ts[i], d)
		}
	}
}

// The Van Loan augmented exponential's transient block must agree with the
// plain expm solver.
func TestTransientAccumulatedExpmMatchesSeparate(t *testing.T) {
	c := birthDeath(t, 5, 1.2, 0.7)
	pi0, _ := c.PointMass(0)
	for _, tt := range []float64{0, 0.5, 4} {
		pi, _, err := c.transientAccumulatedExpm(context.Background(), pi0, tt)
		if err != nil {
			t.Fatal(err)
		}
		wantPi, err := c.transientExpm(context.Background(), pi0, tt)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.L1Dist(pi, wantPi); d > 1e-12 {
			t.Errorf("t=%v: pi deviates by %g", tt, d)
		}
	}
}

// Solver-pass accounting: a series over k distinct positive horizons must
// cost k passes, while the equivalent point-wise transient+accumulated
// evaluation costs 2k.
func TestSolveOpsSeriesVsPointwise(t *testing.T) {
	c := birthDeath(t, 6, 2.0, 3.0)
	pi0, _ := c.PointMass(0)
	ts := []float64{1, 2.5, 4}

	before := SolveOps()
	if _, _, err := c.TransientAccumulatedSeriesContext(context.Background(), pi0, ts); err != nil {
		t.Fatal(err)
	}
	seriesOps := SolveOps() - before

	before = SolveOps()
	for _, tt := range ts {
		if _, err := c.TransientContext(context.Background(), pi0, tt); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AccumulatedContext(context.Background(), pi0, tt); err != nil {
			t.Fatal(err)
		}
	}
	pointOps := SolveOps() - before

	if seriesOps != uint64(len(ts)) {
		t.Errorf("series cost %d solver passes, want %d", seriesOps, len(ts))
	}
	if pointOps != uint64(2*len(ts)) {
		t.Errorf("point-wise cost %d solver passes, want %d", pointOps, 2*len(ts))
	}
}

func TestSolveCacheHitsAreIdentical(t *testing.T) {
	c := birthDeath(t, 6, 2.0, 3.0)
	pi0, _ := c.PointMass(0)
	cache, err := NewSolveCache(c, pi0, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	pi1, acc1, err := cache.TransientAccumulatedContext(context.Background(), 3.5)
	if err != nil {
		t.Fatal(err)
	}
	pi2, acc2, err := cache.TransientAccumulatedContext(context.Background(), 3.5)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.L1Dist(pi1, pi2) != 0 || sparse.L1Dist(acc1, acc2) != 0 {
		t.Error("cache hit returned different values than the fill")
	}
	if st := cache.Snapshot(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 1)", st.Hits, st.Misses)
	}
	// Cached values must match the uncached solvers.
	wantPi, err := c.TransientContext(context.Background(), pi0, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	wantAcc, err := c.AccumulatedContext(context.Background(), pi0, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.L1Dist(pi1, wantPi); d > 1e-12 {
		t.Errorf("cached pi deviates by %g", d)
	}
	if d := sparse.L1Dist(acc1, wantAcc); d != 0 {
		t.Errorf("cached acc deviates by %g", d)
	}
}

func TestSolveCacheBoundedFIFO(t *testing.T) {
	c := twoState(t, 1.5, 0.5)
	pi0, _ := c.PointMass(0)
	cache, err := NewSolveCache(c, pi0, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{1, 2, 3} {
		if _, err := cache.TransientContext(context.Background(), tt); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries past capacity 2", cache.Len())
	}
	// t=1 was evicted first: re-requesting it is a miss, t=3 is still a hit.
	if _, err := cache.TransientContext(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.TransientContext(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if st := cache.Snapshot(); st.Hits != 1 || st.Misses != 4 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 4)", st.Hits, st.Misses)
	}
}

func TestSolveCacheValidation(t *testing.T) {
	c := twoState(t, 1, 1)
	pi0, _ := c.PointMass(0)
	if _, err := NewSolveCache(nil, pi0, 4, false); err == nil {
		t.Error("nil chain accepted")
	}
	if _, err := NewSolveCache(c, []float64{2, 3}, 4, false); err == nil {
		t.Error("non-distribution accepted")
	}
	cache, err := NewSolveCache(c, pi0, 0, false) // capacity raised to 1
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.TransientAccumulatedContext(context.Background(), 1); err == nil {
		t.Error("accumulated view served by a transient-only cache")
	}
	if _, err := cache.TransientContext(context.Background(), -1); err == nil {
		t.Error("negative horizon accepted")
	}
}
