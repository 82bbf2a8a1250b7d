package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"guardedop/internal/core"
	"guardedop/internal/mdcd"
	"guardedop/internal/textplot"
)

// Curve is one evaluated Y(φ) series.
type Curve struct {
	Label   string
	Params  mdcd.Params
	Phis    []float64
	Y       []float64
	Results []core.Result
}

// Optimal returns the φ maximising Y along the curve and the maximum value.
func (c Curve) Optimal() (phi, y float64) {
	if len(c.Y) == 0 {
		return 0, 0
	}
	best := 0
	for i := range c.Y {
		if c.Y[i] > c.Y[best] {
			best = i
		}
	}
	return c.Phis[best], c.Y[best]
}

// sweep evaluates Y over the paper's grid (11 points covering [0, θ]).
func sweep(label string, p mdcd.Params) (Curve, error) {
	a, err := core.NewAnalyzer(p)
	if err != nil {
		return Curve{}, fmt.Errorf("experiments: %s: %w", label, err)
	}
	phis := core.SweepGrid(p.Theta, 10)
	results, err := a.Curve(phis)
	if err != nil {
		return Curve{}, fmt.Errorf("experiments: %s: %w", label, err)
	}
	c := Curve{Label: label, Params: p, Phis: phis, Results: results}
	for _, r := range results {
		c.Y = append(c.Y, r.Y)
	}
	return c, nil
}

// Figure9Curves evaluates the two curves of Figure 9: µ_new ∈ {1e-4, 0.5e-4}
// at θ=10000.
func Figure9Curves() ([]Curve, error) {
	base := mdcd.DefaultParams()
	half := base
	half.MuNew = 0.5e-4
	return sweepAll([]labelled{
		{"mu_new = 1e-4", base},
		{"mu_new = 0.5e-4", half},
	})
}

// Figure10Curves evaluates the two curves of Figure 10: α=β=6000 (the
// Figure 9 base curve, ρ≈(0.98,0.95)) against α=β=2500 (ρ≈(0.95,0.90)).
func Figure10Curves() ([]Curve, error) {
	base := mdcd.DefaultParams()
	slow := base
	slow.Alpha, slow.Beta = 2500, 2500
	return sweepAll([]labelled{
		{"alpha=beta=6000 (rho1=0.98, rho2=0.95)", base},
		{"alpha=beta=2500 (rho1=0.95, rho2=0.90)", slow},
	})
}

// Figure11Curves evaluates the coverage study of Figure 11 at α=β=2500:
// c ∈ {0.95, 0.75, 0.50}.
func Figure11Curves() ([]Curve, error) {
	var ls []labelled
	for _, c := range []float64{0.95, 0.75, 0.50} {
		p := mdcd.DefaultParams()
		p.Alpha, p.Beta = 2500, 2500
		p.Coverage = c
		ls = append(ls, labelled{"c = " + strconv.FormatFloat(c, 'g', -1, 64), p})
	}
	return sweepAll(ls)
}

// Figure11xCurves evaluates the Section 6 text experiments at very low
// coverage: c ∈ {0.20, 0.10} (α=β=2500).
func Figure11xCurves() ([]Curve, error) {
	var ls []labelled
	for _, c := range []float64{0.20, 0.10} {
		p := mdcd.DefaultParams()
		p.Alpha, p.Beta = 2500, 2500
		p.Coverage = c
		ls = append(ls, labelled{"c = " + strconv.FormatFloat(c, 'g', -1, 64), p})
	}
	return sweepAll(ls)
}

// Figure12Curves evaluates Figure 12: θ reduced to 5000, µ_new ∈
// {1e-4, 0.5e-4}.
func Figure12Curves() ([]Curve, error) {
	base := mdcd.DefaultParams()
	base.Theta = 5000
	half := base
	half.MuNew = 0.5e-4
	return sweepAll([]labelled{
		{"mu_new = 1e-4", base},
		{"mu_new = 0.5e-4", half},
	})
}

type labelled struct {
	label  string
	params mdcd.Params
}

func sweepAll(ls []labelled) ([]Curve, error) {
	out := make([]Curve, 0, len(ls))
	for _, l := range ls {
		c, err := sweep(l.label, l.params)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// reportCurves renders a figure reproduction: data table, ASCII chart,
// optima, and the paper's expectation.
func reportCurves(w io.Writer, title, paper string, curves []Curve) error {
	if _, err := fmt.Fprintf(w, "%s\n\n", title); err != nil {
		return err
	}
	rows := [][]string{{"phi"}}
	for _, c := range curves {
		rows[0] = append(rows[0], "Y ["+c.Label+"]")
	}
	for i, phi := range curves[0].Phis {
		row := []string{strconv.FormatFloat(phi, 'f', 0, 64)}
		for _, c := range curves {
			row = append(row, strconv.FormatFloat(c.Y[i], 'f', 4, 64))
		}
		rows = append(rows, row)
	}
	fmt.Fprint(w, textplot.Table(rows))
	fmt.Fprintln(w)

	var series []textplot.Series
	for _, c := range curves {
		series = append(series, textplot.Series{Name: c.Label, Y: c.Y})
	}
	fmt.Fprint(w, textplot.Chart("Y vs phi", curves[0].Phis, series, 66, 14))
	fmt.Fprintln(w)

	for _, c := range curves {
		phi, y := c.Optimal()
		fmt.Fprintf(w, "optimal phi [%s] = %.0f (max Y = %.4f)\n", c.Label, phi, y)
	}
	fmt.Fprintf(w, "\npaper: %s\n", paper)
	return nil
}

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Figure 9: effect of fault-manifestation rate on optimal G-OP duration (theta=10000)",
		Paper: "optimal phi = 7000 at mu_new=1e-4 and 5000 at mu_new=0.5e-4; max Y ≈ 1.45",
		Run: func(_ context.Context, w io.Writer) error {
			curves, err := Figure9Curves()
			if err != nil {
				return err
			}
			return reportCurves(w, "Figure 9 (theta=10000, lambda=1200, c=0.95, alpha=beta=6000)",
				"optimal phi 7000 (mu_new=1e-4) and 5000 (mu_new=0.5e-4), max Y ≈ 1.45", curves)
		},
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Figure 10: effect of performance overhead on optimal G-OP duration (theta=10000)",
		Paper: "optimal phi drops from 7000 to 6000 when alpha=beta drop from 6000 to 2500",
		Run: func(_ context.Context, w io.Writer) error {
			curves, err := Figure10Curves()
			if err != nil {
				return err
			}
			return reportCurves(w, "Figure 10 (theta=10000, mu_new=1e-4, c=0.95)",
				"optimal phi 7000 at alpha=beta=6000 vs 6000 at alpha=beta=2500", curves)
		},
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Figure 11: effect of AT coverage on optimal G-OP duration (theta=10000)",
		Paper: "optimal phi stays at 6000 for c in {0.95, 0.75, 0.50}; max Y drops from ≈1.45 to ≈1.15",
		Run: func(_ context.Context, w io.Writer) error {
			curves, err := Figure11Curves()
			if err != nil {
				return err
			}
			return reportCurves(w, "Figure 11 (theta=10000, mu_new=1e-4, alpha=beta=2500)",
				"optimal phi insensitive to c (stays 6000); max Y 1.45 -> 1.15 as c drops to 0.50", curves)
		},
	})
	register(Experiment{
		ID:    "fig11x",
		Title: "Section 6 text: very low AT coverage (c = 0.20 and 0.10)",
		Paper: "c=0.20: max Y ≈ 1.06 at phi=4000 (too small to justify G-OP); c=0.10: Y < 1 and decreasing",
		Run: func(_ context.Context, w io.Writer) error {
			curves, err := Figure11xCurves()
			if err != nil {
				return err
			}
			return reportCurves(w, "Low-coverage text experiments (theta=10000, alpha=beta=2500)",
				"c=0.20: max Y ≈ 1.06 at phi = 4000; c=0.10: Y < 1 for all phi > 0, decreasing", curves)
		},
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Figure 12: effect of fault-manifestation rate on optimal G-OP duration (theta=5000)",
		Paper: "optimal phi = 2500 (mu_new=1e-4) and 2000 (mu_new=0.5e-4); steeper post-peak decline than theta=10000",
		Run: func(_ context.Context, w io.Writer) error {
			curves, err := Figure12Curves()
			if err != nil {
				return err
			}
			return reportCurves(w, "Figure 12 (theta=5000, lambda=1200, c=0.95, alpha=beta=6000)",
				"optimal phi 2500 (mu_new=1e-4) and 2000 (mu_new=0.5e-4); Y falls faster after its peak than at theta=10000", curves)
		},
	})
}
