package uncertainty

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"guardedop/internal/core"
	"guardedop/internal/mdcd"
)

func TestGammaValidate(t *testing.T) {
	if err := (Gamma{Shape: 2, Rate: 3}).Validate(); err != nil {
		t.Errorf("valid gamma rejected: %v", err)
	}
	for _, g := range []Gamma{{0, 1}, {1, 0}, {-1, 1}, {math.NaN(), 1}, {1, math.Inf(1)}} {
		if err := g.Validate(); err == nil {
			t.Errorf("invalid gamma %+v accepted", g)
		}
	}
}

func TestGammaSampleMoments(t *testing.T) {
	for _, g := range []Gamma{
		{Shape: 2, Rate: 1e4},  // onboard-validation-ish posterior
		{Shape: 0.5, Rate: 2},  // shape < 1 branch
		{Shape: 9, Rate: 0.25}, // large shape
	} {
		rng := rand.New(rand.NewSource(13))
		const n = 200000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := g.Sample(rng)
			if x <= 0 {
				t.Fatalf("non-positive gamma sample %v", x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-g.Mean()) > 0.02*g.Mean() {
			t.Errorf("%+v: sample mean %v, want %v", g, mean, g.Mean())
		}
		if math.Abs(variance-g.Variance()) > 0.05*g.Variance() {
			t.Errorf("%+v: sample variance %v, want %v", g, variance, g.Variance())
		}
	}
}

// TestNonzeroUniform drives the zero-uniform guard directly: a stream
// that opens with exact zeros (which rand.Float64 can produce) must be
// skipped until a positive value arrives.
func TestNonzeroUniform(t *testing.T) {
	stream := []float64{0, 0, 0, 0.25}
	i := 0
	next := func() float64 {
		v := stream[i]
		i++
		return v
	}
	if got := nonzeroUniform(next); got != 0.25 {
		t.Errorf("nonzeroUniform = %v, want 0.25 (after skipping the zeros)", got)
	}
	if i != 4 {
		t.Errorf("consumed %d stream values, want 4", i)
	}
}

// TestGammaSampleShapeBelowOneNeverZero is the regression for the
// shape<1 boost path: boost = U^{1/k} with U drawn raw from rand.Float64
// could collapse to zero, handing the downstream analyzer a zero rate.
// Every draw through the boost path must stay strictly positive.
func TestGammaSampleShapeBelowOneNeverZero(t *testing.T) {
	g := Gamma{Shape: 0.1, Rate: 2} // tiny shape makes U^{1/k} crush small uniforms
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			x := g.Sample(rng)
			if !(x > 0) || math.IsInf(x, 0) || math.IsNaN(x) {
				t.Fatalf("seed %d draw %d: degenerate sample %v from shape<1 boost", seed, i, x)
			}
		}
	}
}

func TestPosteriorRateConjugacy(t *testing.T) {
	prior := Gamma{Shape: 1, Rate: 1000}
	post, err := PosteriorRate(prior, 2, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if post.Shape != 3 || post.Rate != 6000 {
		t.Errorf("posterior = %+v, want shape 3 rate 6000", post)
	}
	// More exposure with no faults tightens the rate downward.
	quiet, err := PosteriorRate(prior, 0, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Mean() >= prior.Mean() {
		t.Errorf("fault-free exposure did not lower the mean: %v vs %v", quiet.Mean(), prior.Mean())
	}
	if _, err := PosteriorRate(prior, -1, 10); err == nil {
		t.Error("negative fault count accepted")
	}
	if _, err := PosteriorRate(prior, 0, math.NaN()); err == nil {
		t.Error("NaN exposure accepted")
	}
	if _, err := PosteriorRate(Gamma{}, 0, 10); err == nil {
		t.Error("invalid prior accepted")
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(s, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile not NaN")
	}
}

func TestPropagateDecisionStructure(t *testing.T) {
	p := mdcd.DefaultParams()
	// Posterior centred near the Table 3 rate with a factor-ish spread:
	// Gamma(4, 4e4) has mean 1e-4 and CV 0.5.
	posterior := Gamma{Shape: 4, Rate: 4e4}
	prop, err := PropagateContext(context.Background(), p, posterior, PropagateOptions{Samples: 60, Seed: 5, GridPoints: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(prop.PhiStars) != 60 || len(prop.MaxYs) != 60 {
		t.Fatalf("sample counts wrong: %d, %d", len(prop.PhiStars), len(prop.MaxYs))
	}
	if !sort.Float64sAreSorted(prop.PhiStars) || !sort.Float64sAreSorted(prop.MuSamples) {
		t.Error("outputs not sorted")
	}
	// The plug-in optimum at the posterior mean must lie inside the
	// posterior phi* range.
	if prop.PlugInPhi < prop.PhiStars[0] || prop.PlugInPhi > prop.PhiStars[len(prop.PhiStars)-1] {
		t.Errorf("plug-in phi %v outside posterior range [%v, %v]",
			prop.PlugInPhi, prop.PhiStars[0], prop.PhiStars[len(prop.PhiStars)-1])
	}
	// The robust expected index is bounded by the best per-sample indices.
	if prop.RobustEY <= 1 || prop.RobustEY > prop.MaxYs[len(prop.MaxYs)-1] {
		t.Errorf("robust E[Y] = %v out of band", prop.RobustEY)
	}
	if prop.RobustPhi <= 0 || prop.RobustPhi >= p.Theta {
		t.Errorf("robust phi = %v, want interior", prop.RobustPhi)
	}
}

func TestPropagateDeterministic(t *testing.T) {
	p := mdcd.DefaultParams()
	posterior := Gamma{Shape: 4, Rate: 4e4}
	a, err := PropagateContext(context.Background(), p, posterior, PropagateOptions{Samples: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PropagateContext(context.Background(), p, posterior, PropagateOptions{Samples: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.RobustPhi != b.RobustPhi || a.MuSamples[0] != b.MuSamples[0] {
		t.Error("propagation not deterministic per seed")
	}
}

func TestPropagateValidation(t *testing.T) {
	p := mdcd.DefaultParams()
	if _, err := PropagateContext(context.Background(), p, Gamma{}, PropagateOptions{}); err == nil {
		t.Error("invalid posterior accepted")
	}
	if _, err := PropagateContext(context.Background(), p, Gamma{Shape: 1, Rate: 1}, PropagateOptions{Samples: 1}); err == nil {
		t.Error("single sample accepted")
	}
	bad := p
	bad.Theta = -1
	if _, err := PropagateContext(context.Background(), bad, Gamma{Shape: 1, Rate: 1e4}, PropagateOptions{}); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestPropagateParametricMatchesNumeric threads the closed-form fast path
// through a full propagation: the same seed under ParametricAuto must
// reproduce the numeric run's decision quantities (identical draws, the
// same grid argmaxes, and expected indices within the engines' 1e-9
// equivalence bound).
func TestPropagateParametricMatchesNumeric(t *testing.T) {
	p := mdcd.DefaultParams()
	posterior := Gamma{Shape: 4, Rate: 4e4}
	opts := PropagateOptions{Samples: 30, Seed: 5, GridPoints: 10}
	numeric, err := PropagateContext(context.Background(), p, posterior, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parametric = core.ParametricAuto
	par, err := PropagateContext(context.Background(), p, posterior, opts)
	if err != nil {
		t.Fatal(err)
	}
	if par.SamplesUsed != numeric.SamplesUsed {
		t.Fatalf("survivors differ: %d vs %d", par.SamplesUsed, numeric.SamplesUsed)
	}
	if par.RobustPhi != numeric.RobustPhi || par.PlugInPhi != numeric.PlugInPhi {
		t.Errorf("decisions differ: robust %v vs %v, plug-in %v vs %v",
			par.RobustPhi, numeric.RobustPhi, par.PlugInPhi, numeric.PlugInPhi)
	}
	if rel := math.Abs(par.RobustEY-numeric.RobustEY) / numeric.RobustEY; rel > 1e-9 {
		t.Errorf("robust E[Y] differs by %.3g relative: %v vs %v", rel, par.RobustEY, numeric.RobustEY)
	}
	for i := range numeric.MaxYs {
		if rel := math.Abs(par.MaxYs[i]-numeric.MaxYs[i]) / numeric.MaxYs[i]; rel > 1e-9 {
			t.Errorf("draw %d: max Y differs by %.3g relative", i, rel)
		}
	}
}
