package experiments

import (
	"context"
	"testing"

	"guardedop/internal/uncertainty"
)

func TestValidationStudyShiftsDecisionDown(t *testing.T) {
	prior := uncertainty.Gamma{Shape: 2, Rate: 1e4}
	rows, err := ValidationStudy(context.Background(), prior, []float64{0, 40000},
		uncertainty.PropagateOptions{Samples: 60, Seed: 3, GridPoints: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Fault-free exposure lowers the posterior mean and with it the robust
	// duration and achievable index.
	if rows[1].PosteriorMean >= rows[0].PosteriorMean {
		t.Errorf("posterior mean did not drop: %v -> %v", rows[0].PosteriorMean, rows[1].PosteriorMean)
	}
	if rows[1].RobustPhi > rows[0].RobustPhi {
		t.Errorf("robust phi did not drop: %v -> %v", rows[0].RobustPhi, rows[1].RobustPhi)
	}
	if rows[1].RobustEY >= rows[0].RobustEY {
		t.Errorf("robust E[Y] did not drop: %v -> %v", rows[0].RobustEY, rows[1].RobustEY)
	}
	if rows[0].PhiLo > rows[0].PhiHi {
		t.Errorf("quantile ordering broken: %v > %v", rows[0].PhiLo, rows[0].PhiHi)
	}
}

func TestValidationStudyPropagatesErrors(t *testing.T) {
	if _, err := ValidationStudy(context.Background(), uncertainty.Gamma{}, []float64{0}, uncertainty.PropagateOptions{}); err == nil {
		t.Error("invalid prior accepted")
	}
}
