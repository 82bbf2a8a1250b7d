package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"guardedop/internal/mdcd"
	"guardedop/internal/robust"
)

// degenerateCases feeds extreme and boundary parameter sets through the
// full analyzer pipeline. The contract under test: every case either
// returns a typed error or finite outputs — never a panic, never NaN.
func degenerateCases() map[string]mdcd.Params {
	base := mdcd.DefaultParams()
	with := func(mut func(*mdcd.Params)) mdcd.Params {
		p := base
		mut(&p)
		return p
	}
	return map[string]mdcd.Params{
		"baseline":          base,
		"zero mu_new":       with(func(p *mdcd.Params) { p.MuNew = 0 }),
		"zero mu_old":       with(func(p *mdcd.Params) { p.MuOld = 0 }),
		"zero both mus":     with(func(p *mdcd.Params) { p.MuNew, p.MuOld = 0, 0 }),
		"coverage zero":     with(func(p *mdcd.Params) { p.Coverage = 0 }),
		"coverage one":      with(func(p *mdcd.Params) { p.Coverage = 1 }),
		"huge theta":        with(func(p *mdcd.Params) { p.Theta = 1e9 }),
		"tiny theta":        with(func(p *mdcd.Params) { p.Theta = 1e-6 }),
		"huge mu_new":       with(func(p *mdcd.Params) { p.MuNew = 1e3 }),
		"mu_new above all":  with(func(p *mdcd.Params) { p.MuNew = 1e7 }),
		"tiny alpha beta":   with(func(p *mdcd.Params) { p.Alpha, p.Beta = 1e-6, 1e-6 }),
		"huge lambda":       with(func(p *mdcd.Params) { p.Lambda = 1e9 }),
		"tiny lambda":       with(func(p *mdcd.Params) { p.Lambda = 1e-6 }),
		"pext one":          with(func(p *mdcd.Params) { p.PExt = 1 }),
		"near-zero pext":    with(func(p *mdcd.Params) { p.PExt = 1e-12 }),
		"slow AT fast rate": with(func(p *mdcd.Params) { p.Alpha = 1e-3; p.MuNew = 10 }),
	}
}

func checkResultFinite(t *testing.T, name string, r Result) {
	t.Helper()
	for _, c := range []struct {
		field string
		v     float64
	}{
		{"Y", r.Y}, {"EWPhi", r.EWPhi}, {"YS1", r.YS1}, {"YS2", r.YS2},
		{"Gamma", r.Gamma}, {"PS1", r.PS1}, {"EW0", r.EW0},
	} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			t.Errorf("%s: %s = %g (non-finite leaked through)", name, c.field, c.v)
		}
	}
}

func TestDegenerateParamsNeverPanicOrLeakNaN(t *testing.T) {
	for name, p := range degenerateCases() {
		t.Run(name, func(t *testing.T) {
			a, err := NewAnalyzer(p)
			if err != nil {
				// A typed failure is acceptable; a silent one is not.
				if err.Error() == "" {
					t.Fatalf("empty error from NewAnalyzer")
				}
				return
			}
			// Evaluate the boundary durations and an interior point.
			for _, phi := range []float64{0, p.Theta / 3, p.Theta} {
				r, err := a.EvaluateContext(context.Background(), phi)
				if err != nil {
					continue // typed skip is fine
				}
				checkResultFinite(t, name, r)
			}
			// The partial sweep must always produce a report, even when
			// individual points fail.
			pr, err := a.CurvePartialWorkers(context.Background(), SweepGrid(p.Theta, 8), 0)
			if err != nil && pr.Report.Succeeded() > 0 {
				t.Errorf("CurvePartial errored despite %d survivors: %v", pr.Report.Succeeded(), err)
			}
			for _, i := range pr.SuccessIndices() {
				checkResultFinite(t, name, pr.Results[i])
			}
		})
	}
}

func TestEvaluateOutOfRangePhi(t *testing.T) {
	a, err := NewAnalyzer(mdcd.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, phi := range []float64{-1, 1e9, math.NaN()} {
		if _, err := a.EvaluateContext(context.Background(), phi); err == nil {
			t.Errorf("Evaluate(%g) accepted an out-of-range duration", phi)
		}
	}
}

func TestCurvePartialSkipsBadPoints(t *testing.T) {
	a, err := NewAnalyzer(mdcd.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Poison two of the φ values; the valid ones must still evaluate.
	phis := []float64{0, 2500, math.NaN(), 5000, -10, 10000}
	pr, err := a.CurvePartialWorkers(context.Background(), phis, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Report.Failed() != 2 || pr.Report.Succeeded() != 4 {
		t.Fatalf("report = %s", pr.Report.Summary())
	}
	for _, f := range pr.Report.Failures {
		if f.Err == nil {
			t.Errorf("failure at %d has nil error", f.Index)
		}
	}
}

func TestCurvePartialCancellation(t *testing.T) {
	a, err := NewAnalyzer(mdcd.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = a.CurvePartialWorkers(ctx, SweepGrid(10000, 10), 0)
	if !errors.Is(err, robust.ErrCanceled) {
		t.Fatalf("canceled sweep returned %v, want ErrCanceled", err)
	}
}

func TestCurveStrictStillFailsFast(t *testing.T) {
	a, err := NewAnalyzer(mdcd.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Curve([]float64{0, math.NaN(), 5000}); err == nil {
		t.Fatal("strict Curve accepted a NaN phi")
	}
}

func TestSelfCheckBaselinePasses(t *testing.T) {
	rep, err := SelfCheck(context.Background(), mdcd.DefaultParams(), 10)
	if err != nil {
		t.Fatalf("baseline self-check failed: %v\n%s", err, rep)
	}
	if rep.Failed() != 0 || len(rep.Checks) < 5 {
		t.Errorf("report = %s", rep)
	}
}

func TestSelfCheckRejectsInvalidParams(t *testing.T) {
	p := mdcd.DefaultParams()
	p.Lambda = 0 // degenerate: no messages are ever sent
	rep, err := SelfCheck(context.Background(), p, 10)
	if !errors.Is(err, robust.ErrInvariant) {
		t.Fatalf("err = %v, want ErrInvariant", err)
	}
	if rep.Failed() == 0 {
		t.Error("report shows no failed checks")
	}
}

func TestSelfCheckCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SelfCheck(ctx, mdcd.DefaultParams(), 10)
	if !errors.Is(err, robust.ErrCanceled) {
		t.Fatalf("canceled self-check returned %v, want ErrCanceled", err)
	}
}
