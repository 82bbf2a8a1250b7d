package sensitivity

import (
	"context"
	"math"
	"testing"

	"guardedop/internal/mdcd"
)

func TestAnalyzeRanksCoverageAndFaultRateHighest(t *testing.T) {
	results, err := Analyze(context.Background(), mdcd.DefaultParams(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(AllParameters()) {
		t.Fatalf("got %d results, want %d", len(results), len(AllParameters()))
	}
	rank := make(map[Parameter]int, len(results))
	byParam := make(map[Parameter]Result, len(results))
	for i, r := range results {
		rank[r.Parameter] = i
		byParam[r.Parameter] = r
	}

	// The paper's qualitative findings, as sensitivities:
	// coverage strongly increases Y (Fig. 11)...
	if byParam[Coverage].YElasticity <= 0 {
		t.Errorf("coverage elasticity = %v, want > 0", byParam[Coverage].YElasticity)
	}
	// ...mu_old is immaterial at 1e-8...
	if math.Abs(byParam[MuOld].YElasticity) > 0.01 {
		t.Errorf("mu_old elasticity = %v, want ≈ 0", byParam[MuOld].YElasticity)
	}
	if rank[MuOld] < rank[Coverage] {
		t.Error("mu_old ranked above coverage")
	}
	// ...and faster safeguards (larger alpha/beta) raise Y.
	if byParam[Alpha].YElasticity <= 0 || byParam[Beta].YElasticity <= 0 {
		t.Errorf("alpha/beta elasticities = %v, %v, want > 0",
			byParam[Alpha].YElasticity, byParam[Beta].YElasticity)
	}

	// Results are sorted by |elasticity| descending.
	for i := 1; i < len(results); i++ {
		if math.Abs(results[i].YElasticity) > math.Abs(results[i-1].YElasticity)+1e-12 {
			t.Errorf("results not sorted at %d", i)
		}
	}
}

func TestAnalyzeFaultRateShiftsPhi(t *testing.T) {
	// Fig. 9: smaller mu_new favours shorter guarding, so phi* must grow
	// with mu_new: UpPhi > DownPhi.
	results, err := Analyze(context.Background(), mdcd.DefaultParams(), Options{
		RelDelta:   0.3,
		Parameters: []Parameter{MuNew},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.PhiShift <= 0 {
		t.Errorf("mu_new phi shift = %v, want > 0 (Fig. 9 direction)", r.PhiShift)
	}
}

func TestAnalyzeSubsetAndDelta(t *testing.T) {
	results, err := Analyze(context.Background(), mdcd.DefaultParams(), Options{
		RelDelta:   0.05,
		Parameters: []Parameter{Coverage, MuNew},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	for _, r := range results {
		if r.RelDelta != 0.05 {
			t.Errorf("RelDelta = %v, want 0.05", r.RelDelta)
		}
		if r.BaseY < 1 {
			t.Errorf("BaseY = %v, want > 1 at Table 3", r.BaseY)
		}
	}
}

func TestAnalyzeValidation(t *testing.T) {
	bad := mdcd.DefaultParams()
	bad.Lambda = -1
	if _, err := Analyze(context.Background(), bad, Options{}); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := Analyze(context.Background(), mdcd.DefaultParams(), Options{RelDelta: 1.5}); err == nil {
		t.Error("RelDelta >= 1 accepted")
	}
	if _, err := Analyze(context.Background(), mdcd.DefaultParams(), Options{Parameters: []Parameter{"bogus"}}); err == nil {
		t.Error("unknown parameter accepted")
	}
}

func TestApplyCoverageClamped(t *testing.T) {
	p := mdcd.DefaultParams()
	up, err := apply(p, Coverage, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if up.Coverage > 1 {
		t.Errorf("coverage = %v, want clamped to 1", up.Coverage)
	}
}
