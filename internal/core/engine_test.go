package core

import (
	"context"
	"math"
	"testing"

	"guardedop/internal/ctmc"
	"guardedop/internal/mdcd"
)

// relCloseY asserts two curve results agree within relTol relative on the
// index and every constituent quantity. Probabilities and the index compare
// against their own magnitude; expected-worth quantities (YS1, YS2, EWPhi)
// are products of probabilities with the 2θ mission horizon, so their
// natural scale — the one a 1e-9 solver agreement propagates to — is the
// ideal worth E[W_I].
func relCloseY(t *testing.T, phi float64, got, want Result, relTol float64) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want float64
		scale     float64
	}{
		{"Y", got.Y, want.Y, 0},
		{"YS1", got.YS1, want.YS1, want.EWI},
		{"YS2", got.YS2, want.YS2, want.EWI},
		{"EWPhi", got.EWPhi, want.EWPhi, want.EWI},
		{"PS1", got.PS1, want.PS1, 0},
		{"PNoFailNewRem", got.PNoFailNewRem, want.PNoFailNewRem, 0},
		{"IntF", got.IntF, want.IntF, 0},
		{"Gd.PA1", got.Gd.PA1, want.Gd.PA1, 0},
		{"Gd.IntH", got.Gd.IntH, want.Gd.IntH, 0},
		{"Gd.IntTauH", got.Gd.IntTauH, want.Gd.IntTauH, want.EWI},
		{"Gd.IntHF", got.Gd.IntHF, want.Gd.IntHF, 0},
	} {
		scale := c.scale
		if scale == 0 {
			scale = math.Abs(c.want)
			if scale < 1 {
				scale = 1
			}
		}
		if math.Abs(c.got-c.want) > relTol*scale {
			t.Errorf("phi=%g %s: engine %.15g vs point-wise %.15g", phi, c.name, c.got, c.want)
		}
	}
}

// The engine's shared-propagation curve must agree with the uncached
// point-wise reference path within 1e-9 relative across the paper grid,
// including unsorted and duplicate durations.
func TestCurveEngineMatchesPointwise(t *testing.T) {
	a := newAnalyzer(t, nil)
	phis := []float64{7000, 0, 2500, 10000, 500, 7000, 9999}
	results, err := a.Curve(phis)
	if err != nil {
		t.Fatal(err)
	}
	for i, phi := range phis {
		want, err := a.evaluatePointwise(context.Background(), phi, GammaPaperTauBar)
		if err != nil {
			t.Fatal(err)
		}
		relCloseY(t, phi, results[i], want, 1e-9)
	}
	if results[0].Y != results[5].Y {
		t.Error("duplicate phi entries differ")
	}
}

// The engine must also hold across a grid wider than one segment, so
// segment boundaries introduce no seams.
func TestCurveEngineMultiSegmentGrid(t *testing.T) {
	a := newAnalyzer(t, nil)
	grid := SweepGrid(10000, 3*curveChunkSize+5)
	results, err := a.Curve(grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, curveChunkSize - 1, curveChunkSize, 2*curveChunkSize + 7, len(grid) - 1} {
		want, err := a.evaluatePointwise(context.Background(), grid[i], GammaPaperTauBar)
		if err != nil {
			t.Fatal(err)
		}
		relCloseY(t, grid[i], results[i], want, 1e-9)
	}
}

// CurvePartialWorkers must be bit-identical at every worker count: segment
// boundaries depend only on the sorted grid.
func TestCurveWorkersBitIdentical(t *testing.T) {
	a := newAnalyzer(t, nil)
	grid := SweepGrid(10000, 50)
	ref, err := a.CurvePartialWorkers(context.Background(), grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 7} {
		pr, err := a.CurvePartialWorkers(context.Background(), grid, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range grid {
			if pr.OK[i] != ref.OK[i] {
				t.Fatalf("workers=%d: OK[%d] = %v, want %v", workers, i, pr.OK[i], ref.OK[i])
			}
			if pr.Results[i] != ref.Results[i] {
				t.Errorf("workers=%d: result %d differs from sequential run", workers, i)
			}
		}
	}
}

// The acceptance bar of the engine: a 50-point paper-scale grid must cost
// at least 3× fewer solver passes than per-point evaluation, with the
// count surfaced through the batch report's metrics.
func TestCurveEngineSolveBudget(t *testing.T) {
	a := newAnalyzer(t, nil)
	grid := SweepGrid(10000, 49) // 50 points
	pr, err := a.CurvePartialWorkers(context.Background(), grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	engineOps := pr.Report.Metrics.Solves
	if engineOps <= 0 {
		t.Fatal("engine run recorded no solver passes in Metrics.Solves")
	}

	before := ctmc.SolveOps()
	for _, phi := range grid {
		if _, err := a.evaluatePointwise(context.Background(), phi, GammaPaperTauBar); err != nil {
			t.Fatal(err)
		}
	}
	pointOps := int64(ctmc.SolveOps() - before)

	if pointOps < 3*engineOps {
		t.Errorf("engine spent %d solver passes, point-wise %d: want >= 3x fewer", engineOps, pointOps)
	}
}

// Repeated single-point evaluation must hit the per-analyzer memo caches:
// the second pass over the same φ values costs zero new solver passes.
func TestEvaluateMemoizesSolves(t *testing.T) {
	a := newAnalyzer(t, nil)
	phis := []float64{1000, 4000, 7000}
	for _, phi := range phis {
		if _, err := a.EvaluateContext(context.Background(), phi); err != nil {
			t.Fatal(err)
		}
	}
	before := ctmc.SolveOps()
	for _, phi := range phis {
		if _, err := a.EvaluateContext(context.Background(), phi); err != nil {
			t.Fatal(err)
		}
	}
	if delta := ctmc.SolveOps() - before; delta != 0 {
		t.Errorf("re-evaluating cached durations spent %d solver passes, want 0", delta)
	}
}

// Cached and uncached evaluation must agree tightly — the cache stores
// full-horizon solves, so a hit is the same value the miss produced.
func TestEvaluateCachedMatchesPointwise(t *testing.T) {
	a := newAnalyzer(t, nil)
	for _, phi := range []float64{0, 1, 2500, 7000, 10000} {
		got, err := a.EvaluateContext(context.Background(), phi)
		if err != nil {
			t.Fatal(err)
		}
		want, err := a.evaluatePointwise(context.Background(), phi, GammaPaperTauBar)
		if err != nil {
			t.Fatal(err)
		}
		relCloseY(t, phi, got, want, 1e-9)
	}
}

// An ablation policy must flow through the engine path too (the optimizer
// solves its coarse grid with the engine under the configured policy).
func TestCurveEnginePolicyPlumbing(t *testing.T) {
	a := newAnalyzer(t, nil)
	grid := SweepGrid(10000, 10)
	pr, err := a.curveBatchPolicy(context.Background(), grid, GammaNone, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, phi := range grid {
		if !pr.OK[i] {
			t.Fatalf("phi=%g failed: %v", phi, pr.Report.Err())
		}
		if pr.Results[i].Gamma != 1 {
			t.Errorf("phi=%g: GammaNone produced gamma=%g", phi, pr.Results[i].Gamma)
		}
		want, err := a.EvaluateWithPolicy(context.Background(), phi, GammaNone)
		if err != nil {
			t.Fatal(err)
		}
		relCloseY(t, phi, pr.Results[i], want, 1e-9)
	}
}

func BenchmarkCurveEngine(b *testing.B) {
	a, err := NewAnalyzer(mdcd.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	grid := SweepGrid(10000, 49) // 50-point paper-scale grid
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Curve(grid); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	pr, err := a.CurvePartialWorkers(context.Background(), grid, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(pr.Report.Metrics.Solves), "solves/sweep")
}

func BenchmarkCurvePerPoint(b *testing.B) {
	a, err := NewAnalyzer(mdcd.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	grid := SweepGrid(10000, 49)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, phi := range grid {
			if _, err := a.evaluatePointwise(context.Background(), phi, GammaPaperTauBar); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	before := ctmc.SolveOps()
	for _, phi := range grid {
		if _, err := a.evaluatePointwise(context.Background(), phi, GammaPaperTauBar); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ctmc.SolveOps()-before), "solves/sweep")
}
