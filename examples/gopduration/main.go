// gopduration: the paper's headline use case. Given the reliability of an
// upgraded flight-software component and the overhead of the MDCD
// safeguards, how long should guarded operation last?
//
// This example reproduces the engineering workflow behind the paper's
// Figure 9: sweep the guarded-operation duration phi, evaluate the
// performability index Y(phi) via the successive model translation, and
// report the optimal duration together with the constituent measures that
// explain it.
//
// Run with: go run ./examples/gopduration
package main

import (
	"context"
	"fmt"
	"log"

	"guardedop/internal/core"
	"guardedop/internal/mdcd"
	"guardedop/internal/textplot"
)

func main() {
	// Table 3 of the paper: a 10000-hour mission segment, messages every
	// 3 s, AT/checkpoint completion in 600 ms, AT coverage 0.95, and an
	// upgraded component with a fault-manifestation rate of 1e-4 per hour.
	p := mdcd.DefaultParams()

	analyzer, err := core.NewAnalyzer(p)
	if err != nil {
		log.Fatal(err)
	}
	rho1, rho2 := analyzer.Rho()
	fmt.Printf("derived overhead parameters: rho1 = %.4f, rho2 = %.4f\n", rho1, rho2)
	fmt.Printf("(the paper's Table 2 derives 0.98 and 0.95 for this setting)\n\n")

	phis := core.SweepGrid(p.Theta, 10)
	results, err := analyzer.Curve(phis)
	if err != nil {
		log.Fatal(err)
	}

	var ys []float64
	best := results[0]
	for _, r := range results {
		ys = append(ys, r.Y)
		if r.Y > best.Y {
			best = r
		}
	}
	fmt.Print(textplot.Chart("performability index Y vs guarded-operation duration phi",
		phis, []textplot.Series{{Name: "Y(phi)", Y: ys}}, 66, 14))

	fmt.Printf("\noptimal duration: phi = %.0f hours with Y = %.4f\n", best.Phi, best.Y)
	fmt.Printf("(the paper's Figure 9 reports phi = 7000 with Y ≈ 1.45)\n\n")

	fmt.Println("why: the two degradation sources at the optimum -")
	fmt.Printf("  P(error detected during G-OP)       = %.4f\n", best.Gd.IntH)
	fmt.Printf("  P(undetected failure during G-OP)   = %.4f\n", best.Gd.PUndetectedFailure)
	fmt.Printf("  P(no error through G-OP)            = %.4f\n", best.Gd.PA1)
	fmt.Printf("  discount for an aborted upgrade     = %.4f\n", best.Gamma)
	fmt.Printf("  safeguard overhead share (P1new,P2) = %.4f, %.4f\n", 1-rho1, 1-rho2)

	// A shorter guarded operation leaves more exposure to undetected
	// failures after the safeguards are switched off; a longer one keeps
	// paying overhead and discounts detected-error missions harder. Show
	// the two neighbours for contrast.
	for _, phi := range []float64{best.Phi - 2000, best.Phi + 2000} {
		if phi < 0 || phi > p.Theta {
			continue
		}
		r, err := analyzer.EvaluateContext(context.Background(), phi)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nphi = %.0f: Y = %.4f (E[W_phi] = %.0f vs %.0f at the optimum)",
			phi, r.Y, r.EWPhi, best.EWPhi)
	}
	fmt.Println()
}
