package core_test

import (
	"context"
	"fmt"
	"log"

	"guardedop/internal/core"
	"guardedop/internal/mdcd"
)

// Example evaluates the performability index at the paper's Table 3
// parameters and its Figure 9 optimum.
func Example() {
	analyzer, err := core.NewAnalyzer(mdcd.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	r0, err := analyzer.EvaluateContext(context.Background(), 0)
	if err != nil {
		log.Fatal(err)
	}
	r7000, err := analyzer.EvaluateContext(context.Background(), 7000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Y(0)    = %.3f\n", r0.Y)
	fmt.Printf("Y(7000) = %.3f\n", r7000.Y)
	// Output:
	// Y(0)    = 1.000
	// Y(7000) = 1.537
}
