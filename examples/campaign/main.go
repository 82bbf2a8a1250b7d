// campaign: planning a multi-upgrade mission with guarded operation.
//
// The paper analyses one onboard upgrade cycle of length theta. A long-life
// mission performs several: after each upgrade the software matures, so
// the fault-manifestation rate of the "new" component drops from cycle to
// cycle. This example plans a 40000-hour mission with four upgrade cycles,
// picking the optimal guarded-operation duration for each cycle and
// totalling the expected mission worth — guarded versus unguarded.
//
// Run with: go run ./examples/campaign
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
	const cycles = 4
	const cycleLength = 10000.0 // hours between scheduled upgrades

	// Each delivery roughly halves the residual design-fault rate as the
	// codebase matures (the onboard-validation stage feeds this estimate).
	muNew := []float64{2e-4, 1e-4, 0.5e-4, 0.25e-4}

	rows := [][]string{{"cycle", "mu_new", "phi*", "Y(phi*)", "E[W] guarded", "E[W] unguarded", "worth gained"}}
	var totalGuarded, totalUnguarded, totalIdeal float64

	ctx := context.Background()
	for i := 0; i < cycles; i++ {
		p := mdcd.DefaultParams()
		p.Theta = cycleLength
		p.MuNew = muNew[i]

		analyzer, err := core.NewAnalyzer(p)
		if err != nil {
			log.Fatal(err)
		}
		best, err := analyzer.OptimizePhiContext(ctx, core.OptimizeOptions{Tolerance: 25})
		if err != nil {
			log.Fatal(err)
		}
		unguarded, err := analyzer.EvaluateContext(ctx, 0)
		if err != nil {
			log.Fatal(err)
		}

		totalGuarded += best.EWPhi
		totalUnguarded += unguarded.EW0
		totalIdeal += best.EWI

		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.2e", p.MuNew),
			fmt.Sprintf("%.0f", best.Phi),
			fmt.Sprintf("%.4f", best.Y),
			fmt.Sprintf("%.0f", best.EWPhi),
			fmt.Sprintf("%.0f", unguarded.EW0),
			fmt.Sprintf("%+.0f", best.EWPhi-unguarded.EW0),
		})
	}

	fmt.Printf("mission: %d upgrade cycles x %.0f h (worth unit: process-hours of service)\n\n",
		cycles, cycleLength)
	fmt.Print(textplot.Table(rows))
	fmt.Println()
	fmt.Printf("totals over the campaign:\n")
	fmt.Printf("  ideal worth          : %.0f\n", totalIdeal)
	fmt.Printf("  guarded (phi* each)  : %.0f  (%.1f%% of ideal)\n",
		totalGuarded, 100*totalGuarded/totalIdeal)
	fmt.Printf("  unguarded            : %.0f  (%.1f%% of ideal)\n",
		totalUnguarded, 100*totalUnguarded/totalIdeal)
	fmt.Printf("  campaign-level index : %.3f\n",
		(totalIdeal-totalUnguarded)/(totalIdeal-totalGuarded))
	fmt.Println()
	fmt.Println("note how phi* shrinks as the software matures (the Fig. 9 effect,")
	fmt.Println("cycle over cycle): mature deliveries need less escorting.")
}
