package core

import (
	"context"
	"math"
	"testing"

	"guardedop/internal/mdcd"
)

func TestOptimizePhiRefinesGridOptimum(t *testing.T) {
	a := newAnalyzer(t, nil)
	best, err := a.OptimizePhiContext(context.Background(), OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The grid optimum is 7000; the continuous optimum must be nearby and
	// at least as good as every grid point.
	if best.Phi < 6000 || best.Phi > 8000 {
		t.Errorf("continuous optimum phi = %v, want near 7000", best.Phi)
	}
	gridBest, err := a.OptimalPhi(SweepGrid(10000, 10))
	if err != nil {
		t.Fatal(err)
	}
	if best.Y < gridBest.Y-1e-9 {
		t.Errorf("refined Y = %v below grid Y = %v", best.Y, gridBest.Y)
	}
}

func TestOptimizePhiRespectsTolerance(t *testing.T) {
	a := newAnalyzer(t, nil)
	coarse, err := a.OptimizePhiContext(context.Background(), OptimizeOptions{Tolerance: 2000})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := a.OptimizePhiContext(context.Background(), OptimizeOptions{Tolerance: 5})
	if err != nil {
		t.Fatal(err)
	}
	if fine.Y+1e-9 < coarse.Y {
		t.Errorf("finer tolerance found worse optimum: %v < %v", fine.Y, coarse.Y)
	}
}

func TestOptimizePhiLowCoverageFindsBoundary(t *testing.T) {
	// At c=0.10, Y is maximised at phi=0 (Y=1): the optimizer must not
	// wander into the interior.
	a := newAnalyzer(t, func(p *mdcd.Params) {
		p.Coverage = 0.10
		p.Alpha, p.Beta = 2500, 2500
	})
	best, err := a.OptimizePhiContext(context.Background(), OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The continuous curve has a microscopically positive slope at phi=0
	// before turning down (invisible at the paper's grid step of 1000), so
	// allow Y to exceed 1 by a hair as long as the optimum hugs the
	// boundary and never reaches a practically useful level.
	if best.Y > 1+1e-4 {
		t.Errorf("max Y = %v, want ≈ 1 at the phi=0 boundary", best.Y)
	}
	if best.Phi > 600 {
		t.Errorf("optimal phi = %v, want near 0", best.Phi)
	}
}

func TestOptimizePhiParallelMatchesSequential(t *testing.T) {
	a := newAnalyzer(t, nil)
	seq, err := a.OptimizePhiContext(context.Background(), OptimizeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		par, err := a.OptimizePhiContext(context.Background(), OptimizeOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// The coarse grid scan is the only parallel stage and the golden
		// section that follows is seeded by its argmax, so any worker count
		// must land on bit-identical results.
		if par.Phi != seq.Phi || par.Y != seq.Y {
			t.Errorf("workers=%d: (phi, Y) = (%v, %v), want (%v, %v)",
				workers, par.Phi, par.Y, seq.Phi, seq.Y)
		}
	}
}

func TestOptimizePhiBadOptions(t *testing.T) {
	a := newAnalyzer(t, nil)
	if _, err := a.OptimizePhiContext(context.Background(), OptimizeOptions{GridPoints: 1}); err == nil {
		t.Error("GridPoints=1 accepted")
	}
	if _, err := a.OptimizePhiContext(context.Background(), OptimizeOptions{Tolerance: -5}); err == nil {
		t.Error("negative tolerance accepted")
	}
}

func TestGammaPolicies(t *testing.T) {
	a := newAnalyzer(t, nil)
	phi := 7000.0
	paper, err := a.EvaluateWithPolicy(context.Background(), phi, GammaPaperTauBar)
	if err != nil {
		t.Fatal(err)
	}
	cond, err := a.EvaluateWithPolicy(context.Background(), phi, GammaConditionalMean)
	if err != nil {
		t.Fatal(err)
	}
	none, err := a.EvaluateWithPolicy(context.Background(), phi, GammaNone)
	if err != nil {
		t.Fatal(err)
	}
	// The Table 1 tau-bar counts the full phi for never-detected paths, so
	// it exceeds the conditional mean: gamma ordering paper < conditional
	// < none, hence the same ordering for Y.
	if !(paper.Gamma < cond.Gamma && cond.Gamma < none.Gamma) {
		t.Errorf("gamma ordering violated: %v, %v, %v", paper.Gamma, cond.Gamma, none.Gamma)
	}
	if none.Gamma != 1 {
		t.Errorf("GammaNone gamma = %v, want 1", none.Gamma)
	}
	if !(paper.Y < cond.Y && cond.Y < none.Y) {
		t.Errorf("Y ordering violated: %v, %v, %v", paper.Y, cond.Y, none.Y)
	}
	if _, err := a.EvaluateWithPolicy(context.Background(), phi, GammaPolicy(99)); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestGammaConditionalMatchesClosedForm(t *testing.T) {
	// With the fast-message approximation, tau | tau <= phi is the mean of
	// a truncated exponential with rate mu ~= mu_new.
	a := newAnalyzer(t, nil)
	phi := 7000.0
	r, err := a.EvaluateWithPolicy(context.Background(), phi, GammaConditionalMean)
	if err != nil {
		t.Fatal(err)
	}
	mu := a.Params().MuNew
	wantTau := (1/mu - math.Exp(-mu*phi)*(phi+1/mu)) / (1 - math.Exp(-mu*phi))
	wantGamma := 1 - wantTau/a.Params().Theta
	if math.Abs(r.Gamma-wantGamma) > 5e-3 {
		t.Errorf("conditional gamma = %.5f, want ≈ %.5f", r.Gamma, wantGamma)
	}
}

func TestGammaPolicyString(t *testing.T) {
	for _, p := range []GammaPolicy{GammaPaperTauBar, GammaConditionalMean, GammaNone, GammaPolicy(42)} {
		if p.String() == "" {
			t.Errorf("empty String for policy %d", int(p))
		}
	}
}

func TestOptimizeUnderAlternativePolicies(t *testing.T) {
	a := newAnalyzer(t, nil)
	paper, err := a.OptimizePhiContext(context.Background(), OptimizeOptions{Policy: GammaPaperTauBar, Tolerance: 50})
	if err != nil {
		t.Fatal(err)
	}
	cond, err := a.OptimizePhiContext(context.Background(), OptimizeOptions{Policy: GammaConditionalMean, Tolerance: 50})
	if err != nil {
		t.Fatal(err)
	}
	// A milder discount makes longer guarding more attractive.
	if cond.Phi < paper.Phi-100 {
		t.Errorf("conditional-gamma optimum %v should not be left of paper optimum %v", cond.Phi, paper.Phi)
	}
	if cond.Y < paper.Y {
		t.Errorf("conditional-gamma max Y %v below paper policy %v", cond.Y, paper.Y)
	}
}

func TestImperfectRecoveryLowersY(t *testing.T) {
	p := mdcd.DefaultParams()
	perfect, err := NewAnalyzer(p)
	if err != nil {
		t.Fatal(err)
	}
	flaky, err := NewAnalyzerWithOptions(p, Options{RecoverySuccess: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	phi := 7000.0
	rp, err := perfect.EvaluateContext(context.Background(), phi)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := flaky.EvaluateContext(context.Background(), phi)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Y >= rp.Y {
		t.Errorf("imperfect recovery did not lower Y: %.4f vs %.4f", rf.Y, rp.Y)
	}
	// Detection probability (successful recoveries) must drop with the
	// recovery success factor.
	if rf.Gd.IntH >= rp.Gd.IntH {
		t.Errorf("IntH did not drop: %.4f vs %.4f", rf.Gd.IntH, rp.Gd.IntH)
	}
	if _, err := NewAnalyzerWithOptions(p, Options{RecoverySuccess: 1.5}); err == nil {
		t.Error("RecoverySuccess > 1 accepted")
	}
}
