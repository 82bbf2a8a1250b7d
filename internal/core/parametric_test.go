package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"guardedop/internal/ctmc"
	"guardedop/internal/mdcd"
	"guardedop/internal/obs"
	"guardedop/internal/parametric"
)

// outOfDomainParams returns a parameter set that passes mdcd validation
// but lies outside the parametric layer's validated domain, so an auto
// analyzer must serve it numerically.
func outOfDomainParams(t *testing.T) mdcd.Params {
	t.Helper()
	p := mdcd.DefaultParams()
	p.MuNew = 0.5
	if err := p.Validate(); err != nil {
		t.Fatalf("out-of-domain fixture must stay mdcd-valid: %v", err)
	}
	if err := parametric.CheckDomain(p); err == nil {
		t.Fatal("fixture is inside the parametric domain; pick a harder one")
	}
	return p
}

// TestParametricEvaluateMatchesNumeric pins the analyzer-level equivalence
// contract: the parametric fast path and the numeric engine agree on the
// performability index and every translation intermediate. On the paper
// grid every published measure agrees at 1e-9 relative. Randomized
// in-domain family sets (the ranges of the benchmark's family sweep) are
// held to the documented bar of docs/PARAMETRIC.md: 1e-9 on the solved
// measures, Y to 1e-9·κ with κ = E[W_I]/(E[W_I] − E[W_φ]), γ to
// 1e-9·E[W_I]/θ, and the worth terms to 1e-9·E[W_I].
func TestParametricEvaluateMatchesNumeric(t *testing.T) {
	sets := []mdcd.Params{mdcd.DefaultParams()}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 6; i++ {
		p := mdcd.DefaultParams()
		p.Theta = math.Round(5000 + 10000*rng.Float64())
		p.MuNew = 1e-5 * math.Pow(100, rng.Float64())
		p.Coverage = 0.85 + 0.14*rng.Float64()
		p.Alpha = math.Round(2000 * math.Pow(6, rng.Float64()))
		p.Beta = p.Alpha
		sets = append(sets, p)
	}
	for si, p := range sets {
		numeric, err := NewAnalyzer(p)
		if err != nil {
			t.Fatal(err)
		}
		par, err := NewAnalyzerWithOptions(p, Options{Parametric: ParametricAuto})
		if err != nil {
			t.Fatal(err)
		}
		if !par.Parametric() {
			t.Fatalf("auto mode did not activate the parametric layer at %+v", p)
		}
		points := 50
		if si > 0 {
			points = 10
		}
		grid := SweepGrid(p.Theta, points)
		// The numeric reference is the curve engine's shared-propagation
		// path: at the paper's q·θ ≈ 2.4e7 it is the most accurate numeric
		// route (the per-point auto path rounds through ~25 expm squarings,
		// which alone cost more than the 1e-9 budget at the grid's far end).
		refs, err := numeric.Curve(grid)
		if err != nil {
			t.Fatal(err)
		}
		for i, phi := range grid {
			rp, err := par.EvaluateContext(context.Background(), phi)
			if err != nil {
				t.Fatalf("parametric Evaluate(%g): %v", phi, err)
			}
			rn := refs[i]
			// scale 0 means relative to the larger magnitude; the paper
			// set holds every measure to that strict form.
			kappa := rn.EWI / (rn.EWI - rn.EWPhi)
			for _, c := range []struct {
				name  string
				a, b  float64
				scale float64
			}{
				{"Y", rp.Y, rn.Y, math.Max(math.Abs(rn.Y), 1) * kappa},
				{"Y^S1", rp.YS1, rn.YS1, rn.EWI},
				{"Y^S2", rp.YS2, rn.YS2, rn.EWI},
				{"E[W_phi]", rp.EWPhi, rn.EWPhi, rn.EWI},
				{"Gamma", rp.Gamma, rn.Gamma, rn.EWI / p.Theta},
				{"P(S1)", rp.PS1, rn.PS1, 1},
			} {
				tol := 1e-9*c.scale + 1e-12
				if si == 0 {
					tol = 1e-9*math.Max(math.Abs(c.a), math.Abs(c.b)) + 1e-12
				}
				if !(math.Abs(c.a-c.b) <= tol) {
					t.Errorf("set %d (theta=%g mu_new=%g c=%g alpha=%g) phi=%g %s: parametric %.15g vs numeric %.15g",
						si, p.Theta, p.MuNew, p.Coverage, p.Alpha, phi, c.name, c.a, c.b)
				}
			}
		}
	}
}

// TestParametricZeroSolvePasses is the performance contract's observable:
// once an in-domain parametric analyzer is built, point evaluation and
// whole-curve sweeps run on closed forms alone — zero CTMC solver passes.
func TestParametricZeroSolvePasses(t *testing.T) {
	p := mdcd.DefaultParams()
	a, err := NewAnalyzerWithOptions(p, Options{Parametric: ParametricAuto})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Parametric() {
		t.Fatal("parametric layer inactive")
	}
	grid := SweepGrid(p.Theta, 50)
	before := ctmc.SolveOps()
	for _, phi := range grid {
		if _, err := a.EvaluateContext(context.Background(), phi); err != nil {
			t.Fatalf("Evaluate(%g): %v", phi, err)
		}
	}
	if _, err := a.Curve(grid); err != nil {
		t.Fatal(err)
	}
	if d := ctmc.SolveOps() - before; d != 0 {
		t.Errorf("in-domain parametric evaluation performed %d solver passes, want 0", d)
	}
}

// TestParametricCurveCounters pins the manifest evidence: a sweep on an
// in-domain auto analyzer records one parametric hit per point and no
// solver passes on the run's scope — the counters a gsueval run manifest
// embeds.
func TestParametricCurveCounters(t *testing.T) {
	p := mdcd.DefaultParams()
	a, err := NewAnalyzerWithOptions(p, Options{Parametric: ParametricAuto})
	if err != nil {
		t.Fatal(err)
	}
	grid := SweepGrid(p.Theta, 20)
	ctx, scope := obs.WithScope(context.Background())
	pr, err := a.CurvePartialWorkers(ctx, grid, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := pr.Report.Succeeded(); got != len(grid) {
		t.Fatalf("sweep succeeded on %d/%d points", got, len(grid))
	}
	if got := scope.Counter(obs.CtrParametricHits); got != int64(len(grid)) {
		t.Errorf("parametric.hits = %d, want %d", got, len(grid))
	}
	if got := scope.Counter(obs.CtrParametricFallbacks); got != 0 {
		t.Errorf("parametric.fallbacks = %d, want 0", got)
	}
	if got := scope.Counter(obs.CtrSolvePasses); got != 0 {
		t.Errorf("ctmc.solve_passes = %d, want 0", got)
	}
}

// TestParametricOutOfDomainFallsBack proves the fallback side of the
// contract: an auto analyzer on out-of-domain parameters serves every
// query through the numeric engine, bit-identically to a parametric-off
// analyzer, while counting one parametric fallback per point.
func TestParametricOutOfDomainFallsBack(t *testing.T) {
	p := outOfDomainParams(t)
	numeric, err := NewAnalyzer(p)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := NewAnalyzerWithOptions(p, Options{Parametric: ParametricAuto})
	if err != nil {
		t.Fatalf("auto mode must degrade to numerics out of domain, got %v", err)
	}
	if auto.Parametric() {
		t.Fatal("parametric layer active outside its validated domain")
	}
	grid := SweepGrid(p.Theta, 20)
	for _, phi := range grid {
		ra, err := auto.EvaluateContext(context.Background(), phi)
		if err != nil {
			t.Fatalf("auto Evaluate(%g): %v", phi, err)
		}
		rn, err := numeric.EvaluateContext(context.Background(), phi)
		if err != nil {
			t.Fatalf("numeric Evaluate(%g): %v", phi, err)
		}
		if ra != rn {
			t.Errorf("phi=%g: fallback result differs from the numeric engine: %+v vs %+v", phi, ra, rn)
		}
	}
	ctx, scope := obs.WithScope(context.Background())
	if _, err := auto.CurvePartialWorkers(ctx, grid, 0); err != nil {
		t.Fatal(err)
	}
	if got := scope.Counter(obs.CtrParametricFallbacks); got != int64(len(grid)) {
		t.Errorf("parametric.fallbacks = %d, want %d", got, len(grid))
	}
	if got := scope.Counter(obs.CtrParametricHits); got != 0 {
		t.Errorf("parametric.hits = %d, want 0", got)
	}
}

// TestParametricOnModeErrors pins the strict mode: ParametricOn refuses to
// build an analyzer the closed-form layer cannot serve, surfacing the
// domain error instead of silently degrading.
func TestParametricOnModeErrors(t *testing.T) {
	p := outOfDomainParams(t)
	if _, err := NewAnalyzerWithOptions(p, Options{Parametric: ParametricOn}); !errors.Is(err, parametric.ErrOutOfDomain) {
		t.Fatalf("got %v, want ErrOutOfDomain", err)
	}
	if _, err := NewAnalyzerWithOptions(mdcd.DefaultParams(), Options{Parametric: ParametricOn}); err != nil {
		t.Fatalf("ParametricOn at the paper params: %v", err)
	}
	if _, err := NewAnalyzerWithOptions(mdcd.DefaultParams(), Options{Parametric: ParametricMode(42)}); err == nil {
		t.Fatal("unknown parametric mode accepted")
	}
}

// benchGrid is sized past the analyzer's solve-memo capacity so the
// numeric benchmark measures solves, not cache hits — the honest
// comparison for the parametric speedup claim.
func benchGrid(theta float64) []float64 {
	return SweepGrid(theta, 2*solveCacheCapacity)
}

func BenchmarkEvaluateParametric(b *testing.B) {
	p := mdcd.DefaultParams()
	a, err := NewAnalyzerWithOptions(p, Options{Parametric: ParametricAuto})
	if err != nil {
		b.Fatal(err)
	}
	if !a.Parametric() {
		b.Fatal("parametric layer inactive")
	}
	grid := benchGrid(p.Theta)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.EvaluateContext(context.Background(), grid[i%len(grid)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateNumeric(b *testing.B) {
	p := mdcd.DefaultParams()
	a, err := NewAnalyzer(p)
	if err != nil {
		b.Fatal(err)
	}
	grid := benchGrid(p.Theta)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.EvaluateContext(context.Background(), grid[i%len(grid)]); err != nil {
			b.Fatal(err)
		}
	}
}
