package experiments

import (
	"context"
	"math"
	"testing"

	"guardedop/internal/core"
)

func TestGammaAblationOrdering(t *testing.T) {
	curves, err := GammaAblation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	paper := curves[core.GammaPaperTauBar]
	cond := curves[core.GammaConditionalMean]
	none := curves[core.GammaNone]
	if len(paper.Y) != len(cond.Y) || len(cond.Y) != len(none.Y) {
		t.Fatal("curve lengths differ")
	}
	for i := range paper.Y {
		if paper.Phis[i] == 0 {
			// All policies coincide at phi=0 (Y=1).
			if math.Abs(paper.Y[i]-1) > 1e-9 || math.Abs(none.Y[i]-1) > 1e-9 {
				t.Errorf("Y(0) != 1 under some policy")
			}
			continue
		}
		if !(paper.Y[i] <= cond.Y[i]+1e-12 && cond.Y[i] <= none.Y[i]+1e-12) {
			t.Errorf("policy ordering violated at phi=%v: %v, %v, %v",
				paper.Phis[i], paper.Y[i], cond.Y[i], none.Y[i])
		}
	}
	// The milder the discount, the later the optimum.
	phiPaper, _ := paper.Optimal()
	phiNone, _ := none.Optimal()
	if phiNone < phiPaper {
		t.Errorf("no-discount optimum %v left of paper optimum %v", phiNone, phiPaper)
	}
}

func TestPhaseAblationInsensitive(t *testing.T) {
	ms, err := PhaseAblation([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ms[1].Rho1-ms[4].Rho1) > 5e-4 || math.Abs(ms[1].Rho2-ms[4].Rho2) > 5e-4 {
		t.Errorf("Erlang stages moved rho: %+v vs %+v", ms[1], ms[4])
	}
}
