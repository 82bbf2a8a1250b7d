package experiments

import (
	"context"
	"fmt"
	"io"

	"guardedop/internal/core"
	"guardedop/internal/mdcd"
	"guardedop/internal/textplot"
)

// RecoveryRow is one point of the recovery-success ablation.
type RecoveryRow struct {
	RecoverySuccess float64
	OptimalPhi      float64
	MaxY            float64
}

// RecoveryAblation relaxes the paper's perfect-recovery assumption: with
// probability 1−s a detected error's recovery fails (and the system fails
// with it). For each s it re-optimises φ.
func RecoveryAblation(ctx context.Context, successes []float64) ([]RecoveryRow, error) {
	rows := make([]RecoveryRow, 0, len(successes))
	for _, s := range successes {
		a, err := core.NewAnalyzerWithOptions(mdcd.DefaultParams(), core.Options{RecoverySuccess: s})
		if err != nil {
			return nil, err
		}
		best, err := a.OptimizePhiContext(ctx, core.OptimizeOptions{Tolerance: 50})
		if err != nil {
			return nil, err
		}
		rows = append(rows, RecoveryRow{RecoverySuccess: s, OptimalPhi: best.Phi, MaxY: best.Y})
	}
	return rows, nil
}

func init() {
	register(Experiment{
		ID:    "ablation-recovery",
		Title: "Ablation: imperfect error recovery (paper assumes recovery always succeeds)",
		Paper: "\"the system will recover from an error successfully as long as the detection is successful\" (Section 2)",
		Run: func(ctx context.Context, w io.Writer) error {
			successes := []float64{1.0, 0.95, 0.8, 0.5, 0.2}
			rows, err := RecoveryAblation(ctx, successes)
			if err != nil {
				return err
			}
			table := [][]string{{"P(recovery succeeds)", "optimal phi", "max Y"}}
			for _, r := range rows {
				table = append(table, []string{
					fmt.Sprintf("%.2f", r.RecoverySuccess),
					fmt.Sprintf("%.0f", r.OptimalPhi),
					fmt.Sprintf("%.4f", r.MaxY),
				})
			}
			fmt.Fprintln(w, "Relaxing the perfect-recovery assumption (base parameters, re-optimised phi):")
			fmt.Fprintln(w)
			fmt.Fprint(w, textplot.Table(table))
			fmt.Fprintln(w)
			fmt.Fprintln(w, "reading: a failed recovery converts a would-be S2 path into a mission")
			fmt.Fprintln(w, "loss, so the achievable index degrades roughly like coverage degradation")
			fmt.Fprintln(w, "(compare Figure 11): detection and recovery quality enter Y through the")
			fmt.Fprintln(w, "same product c·s. The paper's assumption is benign when s is near one.")
			return nil
		},
	})
}
