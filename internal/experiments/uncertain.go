package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"guardedop/internal/mdcd"
	"guardedop/internal/textplot"
	"guardedop/internal/uncertainty"
)

// UncertaintyStudy runs the posterior-propagation extension for a given
// onboard-validation outcome: prior knowledge plus (faults, hours) of
// validation exposure.
func UncertaintyStudy(ctx context.Context, prior uncertainty.Gamma, faults int, hours float64, opts uncertainty.PropagateOptions) (*uncertainty.Propagation, uncertainty.Gamma, error) {
	posterior, err := uncertainty.PosteriorRate(prior, faults, hours)
	if err != nil {
		return nil, uncertainty.Gamma{}, err
	}
	prop, err := uncertainty.PropagateContext(ctx, mdcd.DefaultParams(), posterior, opts)
	return prop, posterior, err
}

func init() {
	register(Experiment{
		ID:    "ext-uncertainty",
		Title: "Extension: Bayesian uncertainty in mu_new from onboard validation",
		Paper: "Section 2 motivates estimating mu_new by onboard validation with Bayesian reliability analysis; this propagates that posterior through the decision",
		Run: func(ctx context.Context, w io.Writer) error {
			// A weakly informative prior (mean 2e-4) updated by a
			// fault-free 10000-hour onboard-validation campaign pulls the
			// posterior mean to 1e-4 — the Table 3 value — with honest
			// spread.
			prior := uncertainty.Gamma{Shape: 2, Rate: 1e4}
			const faults, hours = 0, 10000.0
			prop, posterior, err := UncertaintyStudy(ctx, prior, faults, hours,
				uncertainty.PropagateOptions{Samples: 200, Seed: 2002, GridPoints: 10})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "prior: Gamma(%.0f, %.0f) (mean %.1e); validation: %d faults in %.0f h\n",
				prior.Shape, prior.Rate, prior.Mean(), faults, hours)
			fmt.Fprintf(w, "posterior: Gamma(%.0f, %.0f) (mean %.1e, sd %.1e)\n\n",
				posterior.Shape, posterior.Rate, posterior.Mean(),
				math.Sqrt(posterior.Variance()))

			q := func(s []float64, p float64) float64 { return uncertainty.Quantile(s, p) }
			fmt.Fprint(w, textplot.Table([][]string{
				{"quantity", "5%", "50%", "95%"},
				{"mu_new", fmt.Sprintf("%.2e", q(prop.MuSamples, 0.05)),
					fmt.Sprintf("%.2e", q(prop.MuSamples, 0.50)),
					fmt.Sprintf("%.2e", q(prop.MuSamples, 0.95))},
				{"optimal phi", fmt.Sprintf("%.0f", q(prop.PhiStars, 0.05)),
					fmt.Sprintf("%.0f", q(prop.PhiStars, 0.50)),
					fmt.Sprintf("%.0f", q(prop.PhiStars, 0.95))},
				{"max Y", fmt.Sprintf("%.3f", q(prop.MaxYs, 0.05)),
					fmt.Sprintf("%.3f", q(prop.MaxYs, 0.50)),
					fmt.Sprintf("%.3f", q(prop.MaxYs, 0.95))},
			}))
			fmt.Fprintln(w)
			fmt.Fprintf(w, "plug-in decision (optimise at posterior mean): phi = %.0f\n", prop.PlugInPhi)
			fmt.Fprintf(w, "robust decision (maximise posterior E[Y(phi)]): phi = %.0f with E[Y] = %.4f\n",
				prop.RobustPhi, prop.RobustEY)
			fmt.Fprintln(w)
			fmt.Fprintln(w, "reading: with an honest posterior the optimal duration spans thousands")
			fmt.Fprintln(w, "of hours across draws (Fig. 9's sensitivity, now as a distribution);")
			fmt.Fprintln(w, "the robust choice hedges toward longer guarding than the plug-in when")
			fmt.Fprintln(w, "the posterior leaves mass on higher fault rates.")
			return nil
		},
	})
}
