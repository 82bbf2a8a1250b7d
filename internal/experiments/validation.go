package experiments

import (
	"context"
	"fmt"
	"io"

	"guardedop/internal/textplot"
	"guardedop/internal/uncertainty"
)

// ValidationRow summarises the duration decision after one validation
// campaign length.
type ValidationRow struct {
	ExposureHours float64
	PosteriorMean float64
	PhiLo, PhiHi  float64 // 5% / 95% posterior quantiles of phi*
	RobustPhi     float64
	RobustEY      float64
}

// ValidationStudy quantifies the value of onboard validation for the
// duration decision: a fixed prior over µ_new is updated by fault-free
// validation campaigns of increasing length, and each posterior is
// propagated to the φ* distribution. Fault-free exposure rescales the
// posterior downward without sharpening its relative spread (the Gamma
// shape only grows when faults are observed), so its value lies in moving
// the decision, not in certifying it.
func ValidationStudy(ctx context.Context, prior uncertainty.Gamma, exposures []float64, opts uncertainty.PropagateOptions) ([]ValidationRow, error) {
	rows := make([]ValidationRow, 0, len(exposures))
	for _, hours := range exposures {
		prop, posterior, err := UncertaintyStudy(ctx, prior, 0, hours, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ValidationRow{
			ExposureHours: hours,
			PosteriorMean: posterior.Mean(),
			PhiLo:         uncertainty.Quantile(prop.PhiStars, 0.05),
			PhiHi:         uncertainty.Quantile(prop.PhiStars, 0.95),
			RobustPhi:     prop.RobustPhi,
			RobustEY:      prop.RobustEY,
		})
	}
	return rows, nil
}

func init() {
	register(Experiment{
		ID:    "ext-validation",
		Title: "Extension: how much onboard validation narrows the duration decision",
		Paper: "Figure 1's first GSU stage; the paper uses validation to fix mu_new, this quantifies the residual spread",
		Run: func(ctx context.Context, w io.Writer) error {
			prior := uncertainty.Gamma{Shape: 2, Rate: 1e4}
			exposures := []float64{0, 2500, 10000, 40000}
			rows, err := ValidationStudy(ctx, prior, exposures,
				uncertainty.PropagateOptions{Samples: 120, Seed: 11, GridPoints: 10})
			if err != nil {
				return err
			}
			table := [][]string{{"validation hours", "posterior mean mu", "phi* 5%-95%", "robust phi", "robust E[Y]"}}
			for _, r := range rows {
				table = append(table, []string{
					fmt.Sprintf("%.0f", r.ExposureHours),
					fmt.Sprintf("%.2e", r.PosteriorMean),
					fmt.Sprintf("%.0f - %.0f", r.PhiLo, r.PhiHi),
					fmt.Sprintf("%.0f", r.RobustPhi),
					fmt.Sprintf("%.4f", r.RobustEY),
				})
			}
			fmt.Fprintln(w, "Fault-free onboard validation of increasing length, prior Gamma(2, 1e4):")
			fmt.Fprintln(w)
			fmt.Fprint(w, textplot.Table(table))
			fmt.Fprintln(w)
			fmt.Fprintln(w, "reading: fault-free validation shifts the whole posterior down (robust")
			fmt.Fprintln(w, "phi 9000 -> 5000 here) but does NOT sharpen it in relative terms — with")
			fmt.Fprintln(w, "zero observed faults the Gamma shape never grows, so the coefficient of")
			fmt.Fprintln(w, "variation is stuck at the prior's. Long quiet campaigns therefore argue")
			fmt.Fprintln(w, "for SHORTER guarding (and eventually for skipping G-OP: note the 5%")
			fmt.Fprintln(w, "quantile reaching phi*=0) rather than for more certainty about any one")
			fmt.Fprintln(w, "duration. Committing to a single mu_new after validation, as the paper")
			fmt.Fprintln(w, "does, understates that residual spread.")
			return nil
		},
	})
}
