package main

import (
	"context"
	"fmt"
	"io"
	"math"

	"guardedop/internal/core"
	"guardedop/internal/experiments"
	"guardedop/internal/mdcd"
	"guardedop/internal/sim"
)

// selfCheckSimConfig is the reduced cross-check configuration: the scaled
// valsim parameter set with fewer paths and phi points — enough to catch a
// broken model translation without making -selfcheck slow. It is fixed
// (independent of the user's -theta etc.) because it checks the toolkit,
// not the user's parameter set; the invariant suite covers the latter.
func selfCheckSimConfig() experiments.ValsimConfig {
	cfg := experiments.DefaultValsimConfig()
	cfg.Phis = []float64{0, 400, 800}
	cfg.Paths = 4000
	return cfg
}

// selfCheck runs the health gate behind the -selfcheck flag: the static
// model verifier (the -modelcheck gate, before any solve), then the
// analyzer invariant suite on the given parameters, then a short
// simulator cross-check of the successive model translation. Failures
// come back tagged with exit code 2; cancellation stays a plain runtime
// error.
func selfCheck(ctx context.Context, p mdcd.Params, w io.Writer) error {
	if err := modelCheck(p, w, "", nil); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nself-check: invariant suite on %+v\n\n", p)
	rep, err := core.SelfCheck(ctx, p, 10)
	if rep != nil {
		fmt.Fprint(w, rep)
	}
	if err != nil {
		return selfCheckError(err)
	}

	fmt.Fprintln(w, "\nself-check: simulator cross-check (fixed scaled configuration)")
	if err := simCrossCheck(ctx, w); err != nil {
		return selfCheckError(err)
	}
	fmt.Fprintln(w, "\nself-check: PASS")
	return nil
}

// simCrossCheck compares the analytic index against a short fixed-gamma
// Monte-Carlo estimate on the scaled configuration. A point deviating by
// more than 4 standard errors + 2% of the analytic value fails the check
// (the same verdict rule as the full valsim experiment).
func simCrossCheck(ctx context.Context, w io.Writer) error {
	cfg := selfCheckSimConfig()
	analyzer, err := core.NewAnalyzer(cfg.Params)
	if err != nil {
		return fmt.Errorf("simulator cross-check: %w", err)
	}
	rho1, rho2 := analyzer.Rho()
	s, err := sim.NewSimulator(cfg.Params, rho1, rho2)
	if err != nil {
		return fmt.Errorf("simulator cross-check: %w", err)
	}
	for _, phi := range cfg.Phis {
		if err := ctx.Err(); err != nil {
			return err
		}
		ana, err := analyzer.EvaluateContext(ctx, phi)
		if err != nil {
			return fmt.Errorf("simulator cross-check: phi=%g: %w", phi, err)
		}
		est, err := s.EstimateY(phi, sim.Options{
			Paths: cfg.Paths, Seed: cfg.Seed, GammaMode: sim.GammaFixed, Gamma: ana.Gamma,
		})
		if err != nil {
			return fmt.Errorf("simulator cross-check: phi=%g: %w", phi, err)
		}
		dev := math.Abs(est.Y - ana.Y)
		tol := 4*est.YStdErr + 0.02*ana.Y
		if dev > tol {
			fmt.Fprintf(w, "FAIL  phi=%-6.0f analytic=%.4f sim=%.4f (stderr %.4f, %d paths)\n",
				phi, ana.Y, est.Y, est.YStdErr, cfg.Paths)
			return fmt.Errorf("simulator cross-check: phi=%g: |sim %.4f - analytic %.4f| = %.4f exceeds tolerance %.4f",
				phi, est.Y, ana.Y, dev, tol)
		}
		fmt.Fprintf(w, "PASS  phi=%-6.0f analytic=%.4f sim=%.4f (stderr %.4f, %d paths)\n",
			phi, ana.Y, est.Y, est.YStdErr, cfg.Paths)
	}
	return nil
}
