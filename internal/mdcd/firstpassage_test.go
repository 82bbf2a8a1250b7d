package mdcd

import (
	"context"
	"math"
	"testing"

	"guardedop/internal/ctmc"
	"guardedop/internal/sparse"
)

// First-passage analysis provides an independent route to the detection
// measures: with every detected state made absorbing, the probability of
// ever detecting an error is an absorption probability. It must track the
// AT coverage and agree with the long-horizon transient solution, and the
// conditional mean detection time must track 1/mu_new (fault
// manifestation dominates the detection latency).
func TestDetectionViaFirstPassage(t *testing.T) {
	p := DefaultParams()
	gd, err := BuildRMGd(p)
	if err != nil {
		t.Fatal(err)
	}
	n := gd.Space.NumStates()
	gen := gd.Space.Chain.Generator()
	stopped := sparse.NewCOO(n, n)
	var detectedStates []int
	for i, mk := range gd.Space.States {
		if mk.Get(gd.Detected) == 1 {
			detectedStates = append(detectedStates, i)
			continue
		}
		gen.Row(i, func(c int, v float64) { stopped.Add(i, c, v) })
	}
	if len(detectedStates) == 0 {
		t.Fatal("no detected states in RMGd")
	}
	chain, err := ctmc.New(stopped)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := chain.AbsorbingAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	hitProb := 0.0
	for _, s := range detectedStates {
		ps, err := abs.AbsorptionProbability(gd.Space.Initial, s)
		if err != nil {
			t.Fatal(err)
		}
		hitProb += ps
	}
	// Detection ever happens with probability ≈ c: the race between the
	// first erroneous external message being caught (c) or escaping
	// (failure). Propagation through P2 repeats the race, nudging the
	// total slightly above c.
	if hitProb < p.Coverage-0.01 || hitProb > p.Coverage+0.03 {
		t.Errorf("P(ever detected) = %.4f, want ≈ c = %.2f", hitProb, p.Coverage)
	}
	// Consistency with the truncated Table 1 measures: at a horizon far
	// beyond 1/mu_new the detected mass has converged to the first-passage
	// probability, and the truncated conditional mean to 1/mu_new.
	m, err := gd.MeasuresContext(context.Background(), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.IntH + m.IntHF; math.Abs(got-hitProb) > 1e-6 {
		t.Errorf("P(detected by 1e6) = %.9f, first-passage probability %.9f", got, hitProb)
	}
	if condMean := m.MeanDetectionTime(); math.Abs(condMean-1/p.MuNew) > 0.05/p.MuNew {
		t.Errorf("conditional mean detection time = %.0f, want ≈ 1/mu = %.0f", condMean, 1/p.MuNew)
	}
}
