// validate: end-to-end check of the successive model translation against
// discrete-event simulation of the monolithic GSU process.
//
// The paper's whole point is that the monolithic process X — with its
// deterministic guarded-operation cutoff phi — is awkward to solve
// analytically, so the measure is translated into constituent reward
// variables on three Markov models. A simulator has no trouble with the
// deterministic cutoff, so simulating X directly and comparing Y values
// validates every step of the translation.
//
// Run with: go run ./examples/validate
package main

import (
	"context"
	"fmt"
	"log"

	"guardedop/internal/core"
	"guardedop/internal/experiments"
	"guardedop/internal/sim"
)

func main() {
	// A dimensionally equivalent scaled-down configuration (same mu*theta
	// and phi/theta as Table 3, ~100x fewer simulated events) keeps this
	// example interactive; see cmd/gsusim -full for the paper scale.
	cfg := experiments.DefaultValsimConfig()
	cfg.Paths = 20000

	fmt.Printf("parameters: theta=%g h, lambda=%g /h, mu_new=%g /h, c=%g\n",
		cfg.Params.Theta, cfg.Params.Lambda, cfg.Params.MuNew, cfg.Params.Coverage)
	fmt.Printf("replications: %d paths per phi\n\n", cfg.Paths)

	rows, err := experiments.RunValsimContext(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s %-12s %-20s %-10s\n", "phi", "analytic Y", "simulated Y (±2se)", "per-path-gamma Y")
	for _, r := range rows {
		fmt.Printf("%-8.0f %-12.4f %.4f ± %.4f      %.4f\n",
			r.Phi, r.AnalyticY, r.SimY, 2*r.SimYStdErr, r.PerPathY)
	}

	// Also validate the steady-state overhead solution by simulation.
	rho1Sim, rho2Sim, err := sim.EstimateRho(cfg.Params, 2000, 7)
	if err != nil {
		log.Fatal(err)
	}
	analyzer, err := core.NewAnalyzer(cfg.Params)
	if err != nil {
		log.Fatal(err)
	}
	rho1, rho2 := analyzer.Rho()
	fmt.Printf("\nrho1: analytic %.4f vs simulated %.4f\n", rho1, rho1Sim)
	fmt.Printf("rho2: analytic %.4f vs simulated %.4f\n", rho2, rho2Sim)
}
