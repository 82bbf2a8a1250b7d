package experiments

import (
	"context"
	"math"
	"testing"

	"guardedop/internal/mdcd"
)

func TestStaggerStudyCompounds(t *testing.T) {
	p := mdcd.DefaultParams()
	rows, err := StaggerStudy(context.Background(), p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	base := math.Exp(-p.MuNew * p.Theta)
	for _, r := range rows {
		// Simultaneous: multiplicative compounding.
		want := math.Pow(base, float64(r.K))
		if math.Abs(r.SurvivalTogether-want) > 0.01 {
			t.Errorf("k=%d simultaneous survival %.4f, want ≈ %.4f", r.K, r.SurvivalTogether, want)
		}
		// Staggered: flat at the single-upgrade level.
		if math.Abs(r.SurvivalStaggered-base) > 0.01 {
			t.Errorf("k=%d staggered survival %.4f, want ≈ %.4f", r.K, r.SurvivalStaggered, base)
		}
	}
	// At k=1 the two strategies coincide exactly.
	if math.Abs(rows[0].SurvivalTogether-rows[0].SurvivalStaggered) > 1e-9 {
		t.Errorf("k=1 strategies differ: %v vs %v", rows[0].SurvivalTogether, rows[0].SurvivalStaggered)
	}
}

func TestStaggerStudyValidation(t *testing.T) {
	if _, err := StaggerStudy(context.Background(), mdcd.DefaultParams(), 1); err == nil {
		t.Error("n=1 accepted")
	}
}
