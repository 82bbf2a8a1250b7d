package experiments

import (
	"context"
	"fmt"
	"io"

	"guardedop/internal/core"
	"guardedop/internal/mdcd"
	"guardedop/internal/obs"
	"guardedop/internal/robust"
	"guardedop/internal/sim"
	"guardedop/internal/textplot"
)

// ValsimConfig parameterises the simulation cross-validation.
type ValsimConfig struct {
	Params mdcd.Params
	Phis   []float64
	Paths  int
	Seed   int64
}

// DefaultValsimConfig compares analytic and simulated Y on a
// dimensionally-equivalent scaled-down parameter set (same µ·θ, φ/θ and
// λ≫µ regime as Table 3, far fewer simulated events), which keeps the
// experiment interactive. Pass the Table 3 parameters explicitly for a
// full-scale (slow) run.
func DefaultValsimConfig() ValsimConfig {
	p := mdcd.DefaultParams()
	p.Theta = 1000
	p.MuNew = 1e-3
	p.MuOld = 1e-7
	p.Lambda = 120
	p.Alpha, p.Beta = 600, 600
	return ValsimConfig{
		Params: p,
		Phis:   []float64{0, 200, 400, 600, 800, 1000},
		Paths:  20000,
		Seed:   2002,
	}
}

// ValsimRow is one φ point of the cross-validation.
type ValsimRow struct {
	Phi        float64
	AnalyticY  float64
	SimY       float64
	SimYStdErr float64
	PerPathY   float64
}

// RunValsimContext executes the cross-validation and returns per-φ rows.
// The analytic evaluations and a per-φ valsim.point span report to the
// context's tracer, so `gsusim -trace`/`-metrics` can attribute the
// cross-validation's solver budget (the simulation itself is pure
// Monte-Carlo and contributes wall time, not solver passes). The context
// is checked before each φ point: a canceled run returns an error
// wrapping robust.ErrCanceled without simulating the remaining points.
func RunValsimContext(ctx context.Context, cfg ValsimConfig) ([]ValsimRow, error) {
	analyzer, err := core.NewAnalyzer(cfg.Params)
	if err != nil {
		return nil, err
	}
	rho1, rho2 := analyzer.Rho()
	s, err := sim.NewSimulator(cfg.Params, rho1, rho2)
	if err != nil {
		return nil, err
	}
	rows := make([]ValsimRow, 0, len(cfg.Phis))
	for _, phi := range cfg.Phis {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("experiments: valsim stopped before phi=%g: %w (%v)", phi, robust.ErrCanceled, cerr)
		}
		pctx, sp := obs.StartSpan(ctx, "valsim.point")
		sp.SetFloat("phi", phi)
		ana, err := analyzer.EvaluateContext(pctx, phi)
		if err != nil {
			sp.End()
			return nil, err
		}
		fixed, err := s.EstimateY(phi, sim.Options{
			Paths: cfg.Paths, Seed: cfg.Seed, GammaMode: sim.GammaFixed, Gamma: ana.Gamma,
		})
		if err != nil {
			sp.End()
			return nil, err
		}
		perPath, err := s.EstimateY(phi, sim.Options{Paths: cfg.Paths, Seed: cfg.Seed + 1})
		sp.End()
		if err != nil {
			return nil, err
		}
		rows = append(rows, ValsimRow{
			Phi:        phi,
			AnalyticY:  ana.Y,
			SimY:       fixed.Y,
			SimYStdErr: fixed.YStdErr,
			PerPathY:   perPath.Y,
		})
	}
	return rows, nil
}

func init() {
	register(Experiment{
		ID:    "valsim",
		Title: "Cross-validation: model translation vs Monte-Carlo simulation of the monolithic process",
		Paper: "methodological check (the paper proposes testbed-simulation validation as future work)",
		Run: func(ctx context.Context, w io.Writer) error {
			cfg := DefaultValsimConfig()
			return runValsimReport(ctx, w, cfg)
		},
	})
}

func runValsimReport(ctx context.Context, w io.Writer, cfg ValsimConfig) error {
	fmt.Fprintln(w, "Translation-vs-simulation cross-validation")
	fmt.Fprintf(w, "(scaled parameters: theta=%g, mu_new=%g, lambda=%g; %d paths per point)\n\n",
		cfg.Params.Theta, cfg.Params.MuNew, cfg.Params.Lambda, cfg.Paths)
	rows, err := RunValsimContext(ctx, cfg)
	if err != nil {
		return err
	}
	table := [][]string{{"phi", "Y analytic", "Y sim (fixed gamma)", "stderr", "Y sim (per-path gamma)"}}
	for _, r := range rows {
		table = append(table, []string{
			fmt.Sprintf("%.0f", r.Phi),
			fmt.Sprintf("%.4f", r.AnalyticY),
			fmt.Sprintf("%.4f", r.SimY),
			fmt.Sprintf("%.4f", r.SimYStdErr),
			fmt.Sprintf("%.4f", r.PerPathY),
		})
	}
	fmt.Fprint(w, textplot.Table(table))
	fmt.Fprintln(w)
	fmt.Fprintln(w, "The fixed-gamma simulation targets the same quantity as the analytic")
	fmt.Fprintln(w, "translation; agreement within a few standard errors validates the")
	fmt.Fprintln(w, "successive-translation pipeline end to end. The per-path-gamma column")
	fmt.Fprintln(w, "shows the (systematically higher) index under the design-level")
	fmt.Fprintln(w, "discount gamma(tau) = 1 - tau/theta; see EXPERIMENTS.md.")
	return writeValsimVerdict(w, rows)
}

func writeValsimVerdict(w io.Writer, rows []ValsimRow) error {
	worst := 0.0
	for _, r := range rows {
		dev := r.SimY - r.AnalyticY
		if dev < 0 {
			dev = -dev
		}
		denom := 4*r.SimYStdErr + 0.02*r.AnalyticY
		if denom > 0 && dev/denom > worst {
			worst = dev / denom
		}
	}
	if worst <= 1 {
		_, err := fmt.Fprintln(w, "\nverdict: PASS (all points within 4 sigma + 2%)")
		return err
	}
	_, err := fmt.Fprintf(w, "\nverdict: DEVIATION (worst point at %.2fx the tolerance)\n", worst)
	return err
}
