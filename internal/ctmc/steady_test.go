package ctmc

import (
	"context"
	"errors"
	"math"
	"testing"

	"guardedop/internal/robust"
	"guardedop/internal/sparse"
)

func TestSteadyStateTwoStateAnalytic(t *testing.T) {
	a, b := 3.0, 1.0
	c := twoState(t, a, b)
	want1 := a / (a + b)
	for _, m := range []SteadyMethod{SteadyDirect, SteadySOR, SteadyPower} {
		pi, err := c.SteadyState(SteadyStateOptions{Method: m})
		if err != nil {
			t.Fatalf("method %d: %v", m, err)
		}
		if math.Abs(pi[1]-want1) > 1e-9 {
			t.Errorf("method %d: pi[1] = %.12f, want %.12f", m, pi[1], want1)
		}
	}
}

func TestSteadyStateBirthDeathAnalytic(t *testing.T) {
	// Truncated birth-death: pi_i ∝ (lambda/mu)^i.
	n, lambda, mu := 8, 2.0, 5.0
	c := birthDeath(t, n, lambda, mu)
	rho := lambda / mu
	norm := 0.0
	for i := 0; i < n; i++ {
		norm += math.Pow(rho, float64(i))
	}
	for _, m := range []SteadyMethod{SteadyDirect, SteadySOR, SteadyPower} {
		pi, err := c.SteadyState(SteadyStateOptions{Method: m})
		if err != nil {
			t.Fatalf("method %d: %v", m, err)
		}
		for i := 0; i < n; i++ {
			want := math.Pow(rho, float64(i)) / norm
			if math.Abs(pi[i]-want) > 1e-8 {
				t.Errorf("method %d: pi[%d] = %.12f, want %.12f", m, i, pi[i], want)
			}
		}
	}
}

func TestSteadyStateSORRejectsAbsorbing(t *testing.T) {
	g := sparse.NewCOO(2, 2)
	g.Add(0, 1, 1)
	g.Add(0, 0, -1)
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SteadyState(SteadyStateOptions{Method: SteadySOR}); !errors.Is(err, ErrNotErgodic) {
		t.Errorf("err = %v, want ErrNotErgodic", err)
	}
}

func TestSteadyStateRewardMatchesManual(t *testing.T) {
	c := twoState(t, 1, 1)
	r, err := c.SteadyStateReward([]float64{0, 2}, SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-10 {
		t.Errorf("steady reward = %v, want 1", r)
	}
	if _, err := c.SteadyStateReward([]float64{1}, SteadyStateOptions{}); err == nil {
		t.Error("accepted wrong-length reward vector")
	}
}

func TestSORWithRelaxation(t *testing.T) {
	c := birthDeath(t, 10, 1.0, 2.0)
	pi, err := c.SteadyState(SteadyStateOptions{Method: SteadySOR, Omega: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.SteadyState(SteadyStateOptions{Method: SteadyDirect})
	if err != nil {
		t.Fatal(err)
	}
	if sparse.L1Dist(pi, ref) > 1e-8 {
		t.Errorf("SOR(1.2) differs from direct by %g", sparse.L1Dist(pi, ref))
	}
}

func TestAbsorbingAnalysisCompetingRisks(t *testing.T) {
	// State 0 races to absorbing 1 (rate a) and absorbing 2 (rate b).
	a, b := 3.0, 7.0
	g := sparse.NewCOO(3, 3)
	g.Add(0, 1, a)
	g.Add(0, 2, b)
	g.Add(0, 0, -(a + b))
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := c.AbsorbingAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	pi0, _ := c.PointMass(0)
	p1, err := abs.AbsorptionProbability(pi0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1-a/(a+b)) > 1e-12 {
		t.Errorf("P(absorb in 1) = %v, want %v", p1, a/(a+b))
	}
	if mt := abs.MeanTime[0]; math.Abs(mt-1/(a+b)) > 1e-12 {
		t.Errorf("mean time = %v, want %v", mt, 1/(a+b))
	}
	if _, err := abs.AbsorptionProbability(pi0, 0); err == nil {
		t.Error("AbsorptionProbability accepted non-absorbing state")
	}
}

func TestAbsorbingAnalysisTandem(t *testing.T) {
	// 0 -> 1 -> 2 (absorbing); mean time = 1/r0 + 1/r1.
	r0, r1 := 2.0, 5.0
	g := sparse.NewCOO(3, 3)
	g.Add(0, 1, r0)
	g.Add(0, 0, -r0)
	g.Add(1, 2, r1)
	g.Add(1, 1, -r1)
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := c.AbsorbingAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	pi0, _ := c.PointMass(0)
	if mt := abs.MeanTime[0]; math.Abs(mt-(1/r0+1/r1)) > 1e-12 {
		t.Errorf("mean time = %v, want %v", mt, 1/r0+1/r1)
	}
	p, err := abs.AbsorptionProbability(pi0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1) > 1e-12 {
		t.Errorf("P(absorb) = %v, want 1", p)
	}
	// Mass already on the absorbing state counts as absorbed.
	p2, err := abs.AbsorptionProbability([]float64{0, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != 1 {
		t.Errorf("P(absorb | start absorbed) = %v, want 1", p2)
	}
}

func TestAbsorbingAnalysisNoAbsorbing(t *testing.T) {
	c := twoState(t, 1, 1)
	if _, err := c.AbsorbingAnalysis(); err == nil {
		t.Error("AbsorbingAnalysis accepted chain with no absorbing states")
	}
}

func TestTransientAndAccumulatedRewards(t *testing.T) {
	// Rewards on the two-state chain: rate 1 in state 0, 0 in state 1.
	a, b := 3.0, 1.0
	c := twoState(t, a, b)
	pi0, _ := c.PointMass(0)
	tt := 0.7
	s := a + b
	p0 := b/s + a/s*math.Exp(-s*tt)
	r, err := c.TransientRewardContext(context.Background(), pi0, tt, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-p0) > 1e-10 {
		t.Errorf("transient reward = %v, want %v", r, p0)
	}
	// Accumulated time in state 0 over [0,t].
	wantAcc := b/s*tt + a/(s*s)*(1-math.Exp(-s*tt))
	ra, err := c.AccumulatedRewardContext(context.Background(), pi0, tt, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ra-wantAcc) > 1e-9 {
		t.Errorf("accumulated reward = %v, want %v", ra, wantAcc)
	}
}

func TestErrNotErgodicClassifiesAsNotConverged(t *testing.T) {
	if !errors.Is(ErrNotErgodic, robust.ErrNotConverged) {
		t.Error("ErrNotErgodic does not wrap robust.ErrNotConverged")
	}
}
