// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, regenerating the artefact on every iteration. Run
//
//	go test -bench=. -benchmem
//
// from the repository root. Each benchmark also sanity-checks the paper's
// qualitative result (optimum location / parameter bands) once, so a
// benchmark run doubles as a reproduction run.
package guardedop_test

import (
	"context"
	"fmt"
	"testing"

	"guardedop/internal/core"
	"guardedop/internal/experiments"
	"guardedop/internal/mdcd"
	"guardedop/internal/sensitivity"
	"guardedop/internal/sim"
	"guardedop/internal/uncertainty"
)

// reportCurveMetrics records the optimum of each curve as benchmark metrics
// so `go test -bench` output shows the reproduced headline numbers.
func reportCurveMetrics(b *testing.B, curves []experiments.Curve) {
	b.Helper()
	for i, c := range curves {
		phi, y := c.Optimal()
		b.ReportMetric(phi, fmt.Sprintf("optPhi[%d]", i))
		b.ReportMetric(y, fmt.Sprintf("maxY[%d]", i))
	}
}

// BenchmarkTable1RMGdMeasures regenerates Table 1: the four constituent
// reward variables solved in RMGd across the φ grid.
func BenchmarkTable1RMGdMeasures(b *testing.B) {
	phis := []float64{1000, 3000, 5000, 7000, 9000, 10000}
	for i := 0; i < b.N; i++ {
		ms, err := experiments.Table1Measures(context.Background(), phis)
		if err != nil {
			b.Fatal(err)
		}
		if len(ms) != len(phis) || ms[3].IntH < 0.4 {
			b.Fatalf("Table 1 regeneration implausible: %+v", ms)
		}
	}
}

// BenchmarkTable2RMGpMeasures regenerates Table 2: the steady-state
// overhead measures at both (α, β) settings.
func BenchmarkTable2RMGpMeasures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fast, slow, err := experiments.Table2Measures()
		if err != nil {
			b.Fatal(err)
		}
		if fast.Rho1 < 0.97 || slow.Rho2 > 0.92 {
			b.Fatalf("Table 2 out of band: fast=%+v slow=%+v", fast, slow)
		}
		if i == 0 {
			b.ReportMetric(fast.Rho1, "rho1@6000")
			b.ReportMetric(fast.Rho2, "rho2@6000")
			b.ReportMetric(slow.Rho1, "rho1@2500")
			b.ReportMetric(slow.Rho2, "rho2@2500")
		}
	}
}

// BenchmarkTable3BaseSolve builds the full composite base model under the
// Table 3 parameters and evaluates Y at the paper's optimal duration.
func BenchmarkTable3BaseSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := core.NewAnalyzer(mdcd.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		r, err := a.EvaluateContext(context.Background(), 7000)
		if err != nil {
			b.Fatal(err)
		}
		if r.Y < 1.3 {
			b.Fatalf("Y(7000) = %v out of band", r.Y)
		}
	}
}

// BenchmarkFigure9FaultRate regenerates Figure 9 (both µ_new curves).
func BenchmarkFigure9FaultRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Figure9Curves()
		if err != nil {
			b.Fatal(err)
		}
		if phi, _ := curves[0].Optimal(); phi != 7000 {
			b.Fatalf("base optimum %v, want 7000", phi)
		}
		if phi, _ := curves[1].Optimal(); phi != 5000 {
			b.Fatalf("halved-mu optimum %v, want 5000", phi)
		}
		if i == 0 {
			reportCurveMetrics(b, curves)
		}
	}
}

// BenchmarkFigure10Overhead regenerates Figure 10 (both overhead settings).
func BenchmarkFigure10Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Figure10Curves()
		if err != nil {
			b.Fatal(err)
		}
		if phi, _ := curves[1].Optimal(); phi != 6000 {
			b.Fatalf("slow-safeguard optimum %v, want 6000", phi)
		}
		if i == 0 {
			reportCurveMetrics(b, curves)
		}
	}
}

// BenchmarkFigure11Coverage regenerates Figure 11 (c = 0.95, 0.75, 0.50).
func BenchmarkFigure11Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Figure11Curves()
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range curves {
			if phi, _ := c.Optimal(); phi != 6000 {
				b.Fatalf("%s optimum %v, want 6000", c.Label, phi)
			}
		}
		if i == 0 {
			reportCurveMetrics(b, curves)
		}
	}
}

// BenchmarkFigure11LowCoverage regenerates the Section 6 text experiments
// (c = 0.20 and 0.10).
func BenchmarkFigure11LowCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Figure11xCurves()
		if err != nil {
			b.Fatal(err)
		}
		if _, y := curves[1].Optimal(); y > 1 {
			b.Fatalf("c=0.10 max Y = %v, want <= 1", y)
		}
		if i == 0 {
			reportCurveMetrics(b, curves)
		}
	}
}

// BenchmarkFigure12Horizon regenerates Figure 12 (θ = 5000, both µ_new).
func BenchmarkFigure12Horizon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Figure12Curves()
		if err != nil {
			b.Fatal(err)
		}
		if phi, _ := curves[0].Optimal(); phi != 2500 {
			b.Fatalf("theta=5000 optimum %v, want 2500", phi)
		}
		if i == 0 {
			reportCurveMetrics(b, curves)
		}
	}
}

// BenchmarkSafeguardCosts regenerates the impulse-reward cost-accounting
// experiment (expected AT/checkpoint frequencies on RMGp).
func BenchmarkSafeguardCosts(b *testing.B) {
	gp, err := mdcd.BuildRMGp(mdcd.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rates, err := gp.SafeguardRates()
		if err != nil {
			b.Fatal(err)
		}
		if rates.P1nAT < 100 || rates.P1nAT > 130 {
			b.Fatalf("P1nAT rate %v out of band", rates.P1nAT)
		}
		if i == 0 {
			b.ReportMetric(rates.Total(), "ops/h")
		}
	}
}

// BenchmarkAblationGamma regenerates the γ-policy ablation curves.
func BenchmarkAblationGamma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := experiments.GammaAblation(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(curves) != 3 {
			b.Fatalf("got %d policies", len(curves))
		}
	}
}

// BenchmarkAblationPhases regenerates the Erlang-stage ablation of RMGp.
func BenchmarkAblationPhases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms, err := experiments.PhaseAblation([]int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		if len(ms) != 4 {
			b.Fatalf("got %d stage counts", len(ms))
		}
	}
}

// BenchmarkSensitivityTornado regenerates the parameter-sensitivity
// tornado around the Table 3 base point.
func BenchmarkSensitivityTornado(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := sensitivity.Analyze(context.Background(), mdcd.DefaultParams(), sensitivity.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if results[0].Parameter != sensitivity.Coverage && results[0].Parameter != sensitivity.MuNew {
			b.Fatalf("unexpected top parameter %s", results[0].Parameter)
		}
	}
}

// BenchmarkAblationRecovery regenerates the imperfect-recovery ablation.
func BenchmarkAblationRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RecoveryAblation(context.Background(), []float64{1.0, 0.5})
		if err != nil {
			b.Fatal(err)
		}
		if rows[1].MaxY >= rows[0].MaxY {
			b.Fatal("imperfect recovery did not lower the achievable index")
		}
	}
}

// BenchmarkExtensionStagger regenerates the simultaneous-vs-staggered
// upgrade study on the 4-process RMNdN extension.
func BenchmarkExtensionStagger(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.StaggerStudy(context.Background(), mdcd.DefaultParams(), 4)
		if err != nil {
			b.Fatal(err)
		}
		if rows[3].SurvivalTogether > rows[3].SurvivalStaggered {
			b.Fatal("staggering did not dominate at k=4")
		}
		if i == 0 {
			b.ReportMetric(rows[3].SurvivalTogether, "P(survive)[k=4,together]")
			b.ReportMetric(rows[3].SurvivalStaggered, "P(survive)[k=4,staggered]")
		}
	}
}

// BenchmarkExtensionUncertainty regenerates the Bayesian posterior
// propagation of mu_new through the decision (reduced sample count).
func BenchmarkExtensionUncertainty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prop, _, err := experiments.UncertaintyStudy(context.Background(),
			uncertainty.Gamma{Shape: 2, Rate: 1e4}, 0, 10000,
			uncertainty.PropagateOptions{Samples: 40, Seed: 3, GridPoints: 10})
		if err != nil {
			b.Fatal(err)
		}
		if prop.RobustPhi <= 0 {
			b.Fatal("degenerate robust phi")
		}
	}
}

// benchmarkPropagate200 runs the paper-scale 200-draw posterior
// propagation at a fixed worker count; the Sequential/Parallel pair below
// measures the worker-pool speedup on the same workload (identical
// numbers by construction — see TestPropagateParallelMatchesSequential).
func benchmarkPropagate200(b *testing.B, workers int) {
	b.Helper()
	p := mdcd.DefaultParams()
	posterior := uncertainty.Gamma{Shape: 4, Rate: 4e4}
	for i := 0; i < b.N; i++ {
		prop, err := uncertainty.PropagateContext(context.Background(), p, posterior, uncertainty.PropagateOptions{
			Samples: 200, Seed: 3, GridPoints: 20, Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		if prop.RobustPhi <= 0 || prop.SamplesUsed != 200 {
			b.Fatalf("degenerate propagation: phi=%g used=%d", prop.RobustPhi, prop.SamplesUsed)
		}
	}
}

// BenchmarkPropagate200Sequential is the single-worker baseline.
func BenchmarkPropagate200Sequential(b *testing.B) { benchmarkPropagate200(b, 1) }

// BenchmarkPropagate200Parallel uses the default worker count (every
// core); compare against the Sequential baseline for the pool speedup.
func BenchmarkPropagate200Parallel(b *testing.B) { benchmarkPropagate200(b, 0) }

// BenchmarkExtensionValidation regenerates the validation-value study
// (reduced sample count).
func BenchmarkExtensionValidation(b *testing.B) {
	prior := uncertainty.Gamma{Shape: 2, Rate: 1e4}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ValidationStudy(context.Background(), prior, []float64{0, 40000},
			uncertainty.PropagateOptions{Samples: 30, Seed: 5, GridPoints: 10})
		if err != nil {
			b.Fatal(err)
		}
		if rows[1].RobustPhi > rows[0].RobustPhi {
			b.Fatal("validation did not shift the decision down")
		}
	}
}

// BenchmarkOptimizePhi measures the continuous golden-section optimum
// search used by the sensitivity and cost experiments.
func BenchmarkOptimizePhi(b *testing.B) {
	a, err := core.NewAnalyzer(mdcd.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, err := a.OptimizePhiContext(context.Background(), core.OptimizeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if best.Phi < 6000 || best.Phi > 7500 {
			b.Fatalf("optimum %v out of band", best.Phi)
		}
	}
}

// BenchmarkSimulationCrossCheck runs the translation-vs-simulation
// validation at one φ point (scaled parameters, reduced path count).
func BenchmarkSimulationCrossCheck(b *testing.B) {
	cfg := experiments.DefaultValsimConfig()
	analyzer, err := core.NewAnalyzer(cfg.Params)
	if err != nil {
		b.Fatal(err)
	}
	rho1, rho2 := analyzer.Rho()
	ana, err := analyzer.EvaluateContext(context.Background(), 600)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.NewSimulator(cfg.Params, rho1, rho2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := s.EstimateY(600, sim.Options{
			Paths: 2000, Seed: int64(i + 1), GammaMode: sim.GammaFixed, Gamma: ana.Gamma,
		})
		if err != nil {
			b.Fatal(err)
		}
		if diff := est.Y - ana.Y; diff > 8*est.YStdErr+0.05*ana.Y || -diff > 8*est.YStdErr+0.05*ana.Y {
			b.Fatalf("simulated Y = %v ± %v, analytic %v", est.Y, est.YStdErr, ana.Y)
		}
	}
}
