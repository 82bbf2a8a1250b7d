package uncertainty

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"guardedop/internal/core"
	"guardedop/internal/mdcd"
	"guardedop/internal/robust"
)

// withFailingAnalyzer swaps the analyzer constructor for one that fails
// a fixed fraction of calls, restoring it on cleanup. The counter is
// atomic because draws are evaluated on a worker pool by default.
func withFailingAnalyzer(t *testing.T, failEvery int) *atomic.Int64 {
	t.Helper()
	var calls atomic.Int64
	orig := newAnalyzer
	newAnalyzer = func(p mdcd.Params, o core.Options) (*core.Analyzer, error) {
		c := calls.Add(1)
		if failEvery > 0 && c%int64(failEvery) == 0 {
			return nil, fmt.Errorf("injected solver failure (call %d): %w", c, robust.ErrIllConditioned)
		}
		return orig(p, o)
	}
	t.Cleanup(func() { newAnalyzer = orig })
	return &calls
}

func TestPropagateSkipsFailedDraws(t *testing.T) {
	withFailingAnalyzer(t, 4) // every 4th draw fails (25%)
	p := mdcd.DefaultParams()
	prop, err := PropagateContext(context.Background(), p, Gamma{Shape: 4, Rate: 4e4}, PropagateOptions{Samples: 24, Seed: 7, GridPoints: 6})
	if err != nil {
		t.Fatalf("propagation with 25%% failures aborted: %v", err)
	}
	if prop.Report.Failed() == 0 {
		t.Fatal("report shows no skipped draws")
	}
	if prop.SamplesUsed+prop.Report.Failed() != prop.SamplesRequested {
		t.Errorf("sample accounting: used %d + failed %d != requested %d",
			prop.SamplesUsed, prop.Report.Failed(), prop.SamplesRequested)
	}
	if len(prop.MuSamples) != prop.SamplesUsed || len(prop.PhiStars) != prop.SamplesUsed {
		t.Errorf("outputs sized %d/%d, want %d", len(prop.MuSamples), len(prop.PhiStars), prop.SamplesUsed)
	}
	for _, f := range prop.Report.Failures {
		if !errors.Is(f.Err, robust.ErrIllConditioned) {
			t.Errorf("skipped draw %d lost its typed cause: %v", f.Index, f.Err)
		}
	}
	if prop.RobustPhi < 0 || prop.RobustPhi > p.Theta || prop.RobustEY <= 0 {
		t.Errorf("robust decision degenerate: phi=%g EY=%g", prop.RobustPhi, prop.RobustEY)
	}
}

func TestPropagateFailsWhenMajorityOfDrawsDie(t *testing.T) {
	withFailingAnalyzer(t, 1) // every draw fails
	_, err := PropagateContext(context.Background(), mdcd.DefaultParams(), Gamma{Shape: 4, Rate: 4e4},
		PropagateOptions{Samples: 10, Seed: 7, GridPoints: 4})
	if !errors.Is(err, robust.ErrTooManyFailures) {
		t.Fatalf("err = %v, want ErrTooManyFailures", err)
	}
}

func TestPropagateContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := PropagateContext(ctx, mdcd.DefaultParams(), Gamma{Shape: 4, Rate: 4e4},
		PropagateOptions{Samples: 10, Seed: 7, GridPoints: 4})
	if !errors.Is(err, robust.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestPropagateParallelMatchesSequential locks the acceptance criterion:
// every worker count yields the same numbers, because the µ stream is
// pre-drawn and the batch layer never reorders outcomes.
func TestPropagateParallelMatchesSequential(t *testing.T) {
	p := mdcd.DefaultParams()
	posterior := Gamma{Shape: 4, Rate: 4e4}
	base := PropagateOptions{Samples: 16, Seed: 5, GridPoints: 5, Workers: 1}
	seq, err := PropagateContext(context.Background(), p, posterior, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		opts := base
		opts.Workers = workers
		par, err := PropagateContext(context.Background(), p, posterior, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(seq.Draws, par.Draws) {
			t.Errorf("workers=%d: Draws diverge", workers)
		}
		if !reflect.DeepEqual(seq.MuSamples, par.MuSamples) ||
			!reflect.DeepEqual(seq.PhiStars, par.PhiStars) ||
			!reflect.DeepEqual(seq.MaxYs, par.MaxYs) {
			t.Errorf("workers=%d: sorted marginals diverge", workers)
		}
		if seq.RobustPhi != par.RobustPhi || seq.RobustEY != par.RobustEY || seq.PlugInPhi != par.PlugInPhi {
			t.Errorf("workers=%d: decision diverges: phi %v vs %v, EY %v vs %v",
				workers, seq.RobustPhi, par.RobustPhi, seq.RobustEY, par.RobustEY)
		}
	}
}

// TestPropagateDrawsPairing verifies the paired per-draw records: the
// sorted projections of Draws reproduce the marginals, the indices point
// into the pre-drawn stream, and each (µ, φ*, Y*) tuple is internally
// consistent — re-evaluating the draw's µ reproduces its φ* and Y*.
func TestPropagateDrawsPairing(t *testing.T) {
	withFailingAnalyzer(t, 4)
	p := mdcd.DefaultParams()
	opts := PropagateOptions{Samples: 16, Seed: 7, GridPoints: 5}
	prop, err := PropagateContext(context.Background(), p, Gamma{Shape: 4, Rate: 4e4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(prop.Draws) != prop.SamplesUsed {
		t.Fatalf("Draws sized %d, want %d", len(prop.Draws), prop.SamplesUsed)
	}
	mus := make([]float64, 0, len(prop.Draws))
	phis := make([]float64, 0, len(prop.Draws))
	ys := make([]float64, 0, len(prop.Draws))
	lastIdx := -1
	for _, d := range prop.Draws {
		if d.Index <= lastIdx || d.Index >= opts.Samples {
			t.Fatalf("draw indices not increasing within the stream: %d after %d", d.Index, lastIdx)
		}
		lastIdx = d.Index
		mus = append(mus, d.Mu)
		phis = append(phis, d.PhiStar)
		ys = append(ys, d.MaxY)
	}
	sort.Float64s(mus)
	sort.Float64s(phis)
	sort.Float64s(ys)
	if !reflect.DeepEqual(mus, prop.MuSamples) || !reflect.DeepEqual(phis, prop.PhiStars) || !reflect.DeepEqual(ys, prop.MaxYs) {
		t.Error("sorted projections of Draws do not reproduce the marginals")
	}

	// Re-evaluate one draw's curve independently: the paired (φ*, Y*)
	// must be exactly the curve's maximum at that µ.
	d := prop.Draws[0]
	params := p
	params.MuNew = d.Mu
	a, err := core.NewAnalyzer(params)
	if err != nil {
		t.Fatal(err)
	}
	results, err := a.Curve(core.SweepGrid(p.Theta, opts.GridPoints))
	if err != nil {
		t.Fatal(err)
	}
	best := results[0]
	for _, r := range results {
		if r.Y > best.Y {
			best = r
		}
	}
	if best.Phi != d.PhiStar || best.Y != d.MaxY {
		t.Errorf("draw %d pairing broken: recorded (phi*=%g, Y*=%g), curve says (%g, %g)",
			d.Index, d.PhiStar, d.MaxY, best.Phi, best.Y)
	}
}

// failAllBut makes the analyzer constructor fail every draw except each
// keepEvery-th call, for survival fractions below one half. Only the
// first draws calls are sabotaged so the plug-in analyzer built after
// the batch still succeeds.
func failAllBut(t *testing.T, keepEvery int, draws int) {
	t.Helper()
	var calls atomic.Int64
	orig := newAnalyzer
	newAnalyzer = func(p mdcd.Params, o core.Options) (*core.Analyzer, error) {
		c := calls.Add(1)
		if c <= int64(draws) && c%int64(keepEvery) != 0 {
			return nil, fmt.Errorf("injected solver failure (call %d): %w", c, robust.ErrIllConditioned)
		}
		return orig(p, o)
	}
	t.Cleanup(func() { newAnalyzer = orig })
}

// TestPropagateNegativeSurvivalFractionDisablesFloor covers the
// zero-value disambiguation: MinSurvivalFraction 0 still applies the 0.5
// default, while a negative value disables the floor so a propagation
// stands on any nonzero number of survivors.
func TestPropagateNegativeSurvivalFractionDisablesFloor(t *testing.T) {
	p := mdcd.DefaultParams()
	posterior := Gamma{Shape: 4, Rate: 4e4}
	opts := PropagateOptions{Samples: 16, Seed: 7, GridPoints: 4}

	failAllBut(t, 4, opts.Samples) // 25% survival: below the default floor
	if _, err := PropagateContext(context.Background(), p, posterior, opts); !errors.Is(err, robust.ErrTooManyFailures) {
		t.Fatalf("zero (default) floor accepted 25%% survival: err = %v", err)
	}

	failAllBut(t, 4, opts.Samples)
	opts.MinSurvivalFraction = -1
	prop, err := PropagateContext(context.Background(), p, posterior, opts)
	if err != nil {
		t.Fatalf("disabled floor rejected 25%% survival: %v", err)
	}
	if prop.SamplesUsed == 0 || prop.SamplesUsed == prop.SamplesRequested {
		t.Errorf("expected a partial run, got %d/%d", prop.SamplesUsed, prop.SamplesRequested)
	}

	// Even with the floor disabled, zero survivors cannot stand.
	withFailingAnalyzer(t, 1)
	if _, err := PropagateContext(context.Background(), p, posterior, opts); !errors.Is(err, robust.ErrTooManyFailures) {
		t.Fatalf("zero survivors accepted with disabled floor: err = %v", err)
	}
}

// TestPropagateSeedZeroIsDocumentedDefault pins the documented Seed
// contract: the zero value selects the default stream (seed 1).
func TestPropagateSeedZeroIsDocumentedDefault(t *testing.T) {
	p := mdcd.DefaultParams()
	posterior := Gamma{Shape: 4, Rate: 4e4}
	zero, err := PropagateContext(context.Background(), p, posterior, PropagateOptions{Samples: 8, GridPoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	one, err := PropagateContext(context.Background(), p, posterior, PropagateOptions{Samples: 8, Seed: 1, GridPoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero.MuSamples, one.MuSamples) {
		t.Error("Seed 0 does not select the documented default stream (seed 1)")
	}
}

func TestPropagateDeterministicAcrossFailures(t *testing.T) {
	// The µ draw stream must not depend on which draws fail: a clean run
	// and a run with failures share the surviving draws.
	p := mdcd.DefaultParams()
	opts := PropagateOptions{Samples: 12, Seed: 3, GridPoints: 4}
	clean, err := PropagateContext(context.Background(), p, Gamma{Shape: 4, Rate: 4e4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	withFailingAnalyzer(t, 3)
	partial, err := PropagateContext(context.Background(), p, Gamma{Shape: 4, Rate: 4e4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	cleanSet := make(map[float64]bool, len(clean.MuSamples))
	for _, mu := range clean.MuSamples {
		cleanSet[mu] = true
	}
	for _, mu := range partial.MuSamples {
		if !cleanSet[mu] {
			t.Errorf("surviving draw mu=%g not in the clean stream", mu)
		}
	}
}
