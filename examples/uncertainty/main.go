// uncertainty: choosing a guarded-operation duration under an honest
// posterior for the upgraded component's fault rate.
//
// The paper estimates mu_new from onboard validation (Section 2) and then
// treats it as known. This example keeps the uncertainty: a conjugate
// Gamma posterior for mu_new is propagated through the performability
// analysis, producing a distribution over optimal durations and a robust
// duration that maximises the posterior-expected index.
//
// Run with: go run ./examples/uncertainty
package main

import (
	"context"
	"fmt"
	"log"

	"guardedop/internal/mdcd"
	"guardedop/internal/textplot"
	"guardedop/internal/uncertainty"
)

func main() {
	// Engineering prior: deliveries of this codebase historically manifest
	// design faults at ~2e-4 per hour (Gamma(2, 1e4)).
	prior := uncertainty.Gamma{Shape: 2, Rate: 1e4}

	// Onboard validation observed the shadow replica fault-free for 10000
	// hours; the conjugate update pulls the rate estimate down.
	posterior, err := uncertainty.PosteriorRate(prior, 0, 10000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prior mean mu_new:     %.2e /h\n", prior.Mean())
	fmt.Printf("posterior mean mu_new: %.2e /h (after 10000 fault-free validation hours)\n\n",
		posterior.Mean())

	prop, err := uncertainty.PropagateContext(context.Background(), mdcd.DefaultParams(), posterior, uncertainty.PropagateOptions{
		Samples: 300,
		Seed:    7,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(textplot.Histogram("posterior distribution of the optimal duration phi* (hours)",
		prop.PhiStars, 8, 40))
	fmt.Println()
	q := func(s []float64, p float64) float64 { return uncertainty.Quantile(s, p) }
	fmt.Printf("phi* quantiles: 5%% = %.0f, median = %.0f, 95%% = %.0f\n",
		q(prop.PhiStars, 0.05), q(prop.PhiStars, 0.5), q(prop.PhiStars, 0.95))
	fmt.Printf("max-Y quantiles: 5%% = %.3f, median = %.3f, 95%% = %.3f\n\n",
		q(prop.MaxYs, 0.05), q(prop.MaxYs, 0.5), q(prop.MaxYs, 0.95))

	fmt.Printf("plug-in decision  (optimise at posterior mean): phi = %.0f\n", prop.PlugInPhi)
	fmt.Printf("robust decision   (maximise posterior E[Y]):    phi = %.0f (E[Y] = %.4f)\n",
		prop.RobustPhi, prop.RobustEY)
	fmt.Println()
	fmt.Println("the spread of phi* is the Figure 9 sensitivity made explicit: before")
	fmt.Println("committing to a duration, the designer should know how much of that")
	fmt.Println("spread the validation campaign has actually eliminated.")
}
