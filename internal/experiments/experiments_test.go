package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-gamma", "ablation-phases", "ablation-recovery", "costs",
		"ext-stagger", "ext-uncertainty", "ext-validation",
		"fig10", "fig11", "fig11x", "fig12", "fig9",
		"sensitivity", "table1", "table2", "table3", "valsim",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig9"); !ok {
		t.Error("fig9 not found")
	}
	if _, ok := ByID("nonsense"); ok {
		t.Error("nonsense found")
	}
}

func TestFigure9ReproducesPaperOptima(t *testing.T) {
	curves, err := Figure9Curves()
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("got %d curves", len(curves))
	}
	phi0, y0 := curves[0].Optimal()
	phi1, _ := curves[1].Optimal()
	if phi0 != 7000 {
		t.Errorf("base optimal phi = %v, want 7000", phi0)
	}
	if phi1 != 5000 {
		t.Errorf("halved-mu optimal phi = %v, want 5000", phi1)
	}
	if y0 < 1.3 || y0 > 1.7 {
		t.Errorf("base max Y = %.3f, want near the paper's 1.45", y0)
	}
}

func TestFigure10ReproducesPaperOptima(t *testing.T) {
	curves, err := Figure10Curves()
	if err != nil {
		t.Fatal(err)
	}
	phiFast, _ := curves[0].Optimal()
	phiSlow, _ := curves[1].Optimal()
	if phiFast != 7000 || phiSlow != 6000 {
		t.Errorf("optima = (%v, %v), want (7000, 6000)", phiFast, phiSlow)
	}
}

func TestFigure11CoverageOrdering(t *testing.T) {
	curves, err := Figure11Curves()
	if err != nil {
		t.Fatal(err)
	}
	var prevMax = 100.0
	for _, c := range curves {
		phi, y := c.Optimal()
		if phi != 6000 {
			t.Errorf("%s: optimal phi = %v, want 6000", c.Label, phi)
		}
		if y >= prevMax {
			t.Errorf("%s: max Y %v not decreasing in coverage", c.Label, y)
		}
		prevMax = y
	}
}

func TestFigure11xLowCoverage(t *testing.T) {
	curves, err := Figure11xCurves()
	if err != nil {
		t.Fatal(err)
	}
	// c=0.20: a weak interior optimum near 4000.
	phi20, y20 := curves[0].Optimal()
	if phi20 < 3000 || phi20 > 5000 {
		t.Errorf("c=0.20 optimal phi = %v, want near 4000", phi20)
	}
	if y20 < 1.0 || y20 > 1.1 {
		t.Errorf("c=0.20 max Y = %.3f, want marginal (paper: 1.06)", y20)
	}
	// c=0.10: never worth it.
	_, y10 := curves[1].Optimal()
	if y10 > 1.0+1e-9 {
		t.Errorf("c=0.10 max Y = %.4f, want <= 1", y10)
	}
	for i, y := range curves[1].Y {
		if curves[1].Phis[i] > 0 && y >= 1 {
			t.Errorf("c=0.10: Y(%v) = %.4f, want < 1", curves[1].Phis[i], y)
		}
	}
}

func TestFigure12ReproducesPaperOptima(t *testing.T) {
	curves, err := Figure12Curves()
	if err != nil {
		t.Fatal(err)
	}
	phi0, _ := curves[0].Optimal()
	phi1, _ := curves[1].Optimal()
	if phi0 != 2500 {
		t.Errorf("theta=5000 base optimal phi = %v, want 2500", phi0)
	}
	// The paper reports 2000; the reconstructed model is essentially flat
	// between 2000 and 2500 there, so accept either grid point.
	if phi1 != 2000 && phi1 != 2500 {
		t.Errorf("theta=5000 halved-mu optimal phi = %v, want 2000-2500", phi1)
	}
}

func TestTable2MatchesPaperDerivedParams(t *testing.T) {
	fast, slow, err := Table2Measures()
	if err != nil {
		t.Fatal(err)
	}
	if fast.Rho1 < 0.975 || fast.Rho1 > 0.985 || fast.Rho2 < 0.94 || fast.Rho2 > 0.96 {
		t.Errorf("fast overheads = %+v, want ≈ (0.98, 0.95)", fast)
	}
	if slow.Rho1 < 0.945 || slow.Rho1 > 0.96 || slow.Rho2 < 0.89 || slow.Rho2 > 0.91 {
		t.Errorf("slow overheads = %+v, want ≈ (0.95, 0.90)", slow)
	}
}

func TestAllReportsRun(t *testing.T) {
	for _, e := range All() {
		if e.ID == "valsim" && testing.Short() {
			continue // Monte-Carlo; covered by TestValsimReport when not -short
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(context.Background(), &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
			report := buf.String()
			complete := false
			for _, marker := range []string{"paper", "rho", "Table", "phi", "posterior"} {
				if strings.Contains(report, marker) {
					complete = true
					break
				}
			}
			if e.ID != "valsim" && !complete {
				t.Errorf("%s report looks incomplete:\n%s", e.ID, report)
			}
		})
	}
}

func TestValsimPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo cross-validation skipped in -short mode")
	}
	cfg := DefaultValsimConfig()
	cfg.Paths = 8000 // lighter than the CLI default, still tight enough
	rows, err := RunValsimContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		dev := r.SimY - r.AnalyticY
		if dev < 0 {
			dev = -dev
		}
		if dev > 4*r.SimYStdErr+0.025*r.AnalyticY {
			t.Errorf("phi=%v: sim Y = %.4f ± %.4f vs analytic %.4f", r.Phi, r.SimY, r.SimYStdErr, r.AnalyticY)
		}
	}
}

func TestCurveOptimalEmpty(t *testing.T) {
	var c Curve
	if phi, y := c.Optimal(); phi != 0 || y != 0 {
		t.Errorf("empty curve optimal = (%v, %v)", phi, y)
	}
}
