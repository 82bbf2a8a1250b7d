package sim

import (
	"context"
	"math"
	"testing"

	"guardedop/internal/core"
)

// The headline validation: the monolithic-process simulation must agree
// with the translated reward-model solution of Y. The two share model
// generators but differ in everything the translation approximates away —
// the deterministic φ boundary, latent contamination carried across it,
// and the neglected second-order term of Eq. (19) — so agreement within a
// few percent validates the whole pipeline.
func TestSimulationAgreesWithTranslation(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo validation; skipped in -short mode")
	}
	p := scaledParams()
	analyzer, err := core.NewAnalyzer(p)
	if err != nil {
		t.Fatal(err)
	}
	rho1, rho2 := analyzer.Rho()
	s, err := NewSimulator(p, rho1, rho2)
	if err != nil {
		t.Fatal(err)
	}
	for _, phi := range []float64{200, 500, 800} {
		ana, err := analyzer.EvaluateContext(context.Background(), phi)
		if err != nil {
			t.Fatal(err)
		}
		// Use the analytic γ so the comparison isolates the translation's
		// probabilistic structure rather than the γ treatment.
		est, err := s.EstimateY(phi, Options{
			Paths:     20000,
			Seed:      31,
			GammaMode: GammaFixed,
			Gamma:     ana.Gamma,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Re-pinned for the SplitMix64 per-path seed derivation: with
		// decorrelated streams the deviation at every grid point fits
		// inside 4 standard errors, so the systematic slack for the
		// translation's approximations tightens from 2% to 1%.
		tol := 4*est.YStdErr + 0.01*ana.Y
		if math.Abs(est.Y-ana.Y) > tol {
			t.Errorf("phi=%v: simulated Y = %.4f ± %.4f, analytic Y = %.4f (tol %.4f)",
				phi, est.Y, est.YStdErr, ana.Y, tol)
		}
	}
}

// Per-path γ(τ) versus the paper's fixed-γ approximation. The paper's τ̄ is
// the Table 1 ∫τh reward — the expected sojourn before the first error
// event, which counts the full φ for never-detected paths — so it exceeds
// the conditional mean detection time and the resulting fixed γ is
// systematically pessimistic: fixed-γ Y must come out BELOW per-path Y,
// but within the same regime (both on the same side of 1, ordering of the
// worth terms preserved). The gap is quantified in EXPERIMENTS.md.
func TestGammaTreatmentsAgreeApproximately(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo validation; skipped in -short mode")
	}
	p := scaledParams()
	analyzer, err := core.NewAnalyzer(p)
	if err != nil {
		t.Fatal(err)
	}
	rho1, rho2 := analyzer.Rho()
	s, err := NewSimulator(p, rho1, rho2)
	if err != nil {
		t.Fatal(err)
	}
	phi := 700.0
	ana, err := analyzer.EvaluateContext(context.Background(), phi)
	if err != nil {
		t.Fatal(err)
	}
	perPath, err := s.EstimateY(phi, Options{Paths: 15000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := s.EstimateY(phi, Options{Paths: 15000, Seed: 8, GammaMode: GammaFixed, Gamma: ana.Gamma})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Y > perPath.Y+4*perPath.YStdErr {
		t.Errorf("fixed-γ Y = %.4f should not exceed per-path Y = %.4f", fixed.Y, perPath.Y)
	}
	if perPath.Y > 2*fixed.Y {
		t.Errorf("gamma treatments diverge beyond the expected band: per-path Y = %.4f, fixed Y = %.4f",
			perPath.Y, fixed.Y)
	}
	if (fixed.Y > 1) != (perPath.Y > 1) {
		t.Errorf("gamma treatments disagree on whether G-OP pays off: %.4f vs %.4f", fixed.Y, perPath.Y)
	}
}
