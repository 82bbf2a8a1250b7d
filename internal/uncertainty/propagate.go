package uncertainty

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"guardedop/internal/core"
	"guardedop/internal/mdcd"
	"guardedop/internal/robust"
)

// PropagateOptions tunes the Monte-Carlo propagation.
type PropagateOptions struct {
	// Samples is the number of posterior draws (default 200).
	Samples int
	// Seed seeds the deterministic draw stream. The zero value selects
	// the default seed 1 — a literal seed of 0 is not expressible; pick
	// any other seed for an independent stream.
	Seed int64
	// GridPoints is the φ-grid resolution used both for the per-sample
	// optimum and the robust choice (default 20 intervals over [0, θ]).
	GridPoints int
	// MinSurvivalFraction is the fraction of posterior draws that must
	// evaluate successfully for the propagation to stand. Zero applies
	// the default 0.5 (fail only when fewer than half the samples
	// survive); any negative value disables the floor entirely, so a
	// propagation stands on any nonzero number of surviving draws. Draws
	// that hit a degenerate parameter region are skipped and recorded in
	// the report, not fatal.
	MinSurvivalFraction float64
	// Workers bounds how many posterior draws are evaluated concurrently:
	// 0 (the default) uses every core (runtime.GOMAXPROCS), 1 evaluates
	// sequentially. The µ stream is pre-drawn, so the result is identical
	// for every worker count.
	Workers int
	// Parametric selects the analyzer's closed-form fast path for the
	// per-draw curve evaluations (core.ParametricAuto collapses each
	// in-domain draw from solver runs to formula evaluations). The zero
	// value keeps the numeric engine, like core.Options.
	Parametric core.ParametricMode
}

func (o PropagateOptions) withDefaults() PropagateOptions {
	if o.Samples == 0 {
		o.Samples = 200
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.GridPoints == 0 {
		o.GridPoints = 20
	}
	if o.MinSurvivalFraction == 0 {
		o.MinSurvivalFraction = 0.5
	}
	return o
}

// batchSurvivalFloor maps the option's "negative disables" convention to
// RunBatch's "zero disables" one.
func batchSurvivalFloor(f float64) float64 {
	if f < 0 {
		return 0
	}
	return f
}

// DrawResult is one surviving posterior draw's paired per-draw record:
// the µ_new draw together with the optimal duration and maximal index it
// induces. Unlike the sorted marginals below, the tuple stays intact.
type DrawResult struct {
	// Index is the draw's position in the pre-drawn µ stream, so skipped
	// draws leave visible gaps and two runs can be joined draw-by-draw.
	Index int
	// Mu is the posterior draw of µ_new.
	Mu float64
	// PhiStar is the duration maximising Y(φ) under this draw.
	PhiStar float64
	// MaxY is the index achieved at PhiStar.
	MaxY float64
}

// Propagation holds the posterior-propagated decision quantities.
type Propagation struct {
	// Draws are the surviving posterior draws in original draw order,
	// each pairing (µ, φ*, Y*); the metrics dump and any per-draw
	// post-processing should read these.
	Draws []DrawResult
	// MuSamples are the posterior draws of µ_new that evaluated
	// successfully, sorted ascending — the marginal distribution of the
	// rate, for quantile summaries.
	MuSamples []float64
	// PhiStars are the per-draw optimal durations, sorted ascending — the
	// marginal distribution of φ*. Sorting each slice independently
	// destroys the (µ, φ*, Y*) pairing; use Draws to recover per-draw
	// tuples.
	PhiStars []float64
	// MaxYs are the per-draw maximal indices, sorted ascending (the
	// marginal of Y*; see PhiStars about pairing).
	MaxYs []float64
	// RobustPhi maximises the posterior-expected index E_µ[Y(φ)] over the
	// grid, and RobustEY is that expected index.
	RobustPhi float64
	RobustEY  float64
	// PlugInPhi is the optimum computed at the posterior-mean rate — the
	// non-Bayesian plug-in decision, for comparison.
	PlugInPhi float64
	// SamplesRequested and SamplesUsed count the posterior draws submitted
	// and surviving; Report details the skipped draws (Failed() == 0 when
	// every draw succeeded).
	SamplesRequested int
	SamplesUsed      int
	Report           *robust.Report
}

// newAnalyzer builds the per-draw analyzer; a package variable so tests
// can inject solver failures.
var newAnalyzer = core.NewAnalyzerWithOptions

// sampleEval is the per-draw outcome fed to the aggregation step.
type sampleEval struct {
	mu      float64
	ys      []float64
	bestPhi float64
	bestY   float64
}

// PropagateContext draws µ_new from the posterior, evaluates the Y(φ)
// curve for each draw, and aggregates the optimal-duration distribution
// together with the robust (posterior-expected-Y) duration choice. It
// supports cancellation and samples fault-tolerantly: a posterior draw
// whose model evaluation fails (degenerate rate, invariant violation,
// non-finite solve) is skipped and recorded in the result's Report
// instead of aborting the run. The call
// errors only when the context is canceled or too few draws survive —
// fewer than opts.MinSurvivalFraction, or none at all with the floor
// disabled (both wrapping robust.ErrTooManyFailures).
//
// Draws are evaluated on a bounded worker pool (opts.Workers). The µ
// stream is drawn up front from opts.Seed, so every worker count — and
// any pattern of skipped draws — yields the same numbers.
func PropagateContext(ctx context.Context, p mdcd.Params, posterior Gamma, opts PropagateOptions) (*Propagation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := posterior.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if opts.Samples < 2 {
		return nil, fmt.Errorf("uncertainty: need at least 2 samples, got %d", opts.Samples)
	}

	// Draw every µ up front so the stream stays deterministic regardless
	// of which draws later fail.
	rng := rand.New(rand.NewSource(opts.Seed))
	mus := make([]float64, opts.Samples)
	for s := range mus {
		mus[s] = posterior.Sample(rng)
	}
	grid := core.SweepGrid(p.Theta, opts.GridPoints)

	pr, err := robust.RunBatch(ctx, mus, func(_ context.Context, mu float64) (sampleEval, error) {
		params := p
		params.MuNew = mu
		a, err := newAnalyzer(params, core.Options{Parametric: opts.Parametric})
		if err != nil {
			return sampleEval{}, fmt.Errorf("uncertainty: draw mu=%g: %w", mu, err)
		}
		results, err := a.Curve(grid)
		if err != nil {
			return sampleEval{}, fmt.Errorf("uncertainty: draw mu=%g: %w", mu, err)
		}
		ev := sampleEval{mu: mu, ys: make([]float64, len(results))}
		best := results[0]
		for i, r := range results {
			ev.ys[i] = r.Y
			if r.Y > best.Y {
				best = r
			}
		}
		ev.bestPhi, ev.bestY = best.Phi, best.Y
		return ev, nil
	}, robust.BatchOptions{
		MinSuccessFraction: batchSurvivalFloor(opts.MinSurvivalFraction),
		Workers:            opts.Workers,
	})
	if err != nil {
		if pr != nil && pr.Report.Failed() > 0 {
			return nil, fmt.Errorf("uncertainty: %w\n%s", err, pr.Report.Summary())
		}
		return nil, fmt.Errorf("uncertainty: %w", err)
	}
	if pr.Report.Succeeded() == 0 {
		// Reachable only with the survival floor disabled: nothing to
		// aggregate is still a failed propagation.
		return nil, fmt.Errorf("uncertainty: no posterior draw survived: %w\n%s",
			robust.ErrTooManyFailures, pr.Report.Summary())
	}

	out := &Propagation{
		SamplesRequested: opts.Samples,
		SamplesUsed:      pr.Report.Succeeded(),
		Report:           pr.Report,
	}
	sumY := make([]float64, len(grid))
	for i, ok := range pr.OK {
		if !ok {
			continue
		}
		ev := pr.Results[i]
		for j, y := range ev.ys {
			sumY[j] += y
		}
		out.Draws = append(out.Draws, DrawResult{Index: i, Mu: ev.mu, PhiStar: ev.bestPhi, MaxY: ev.bestY})
		out.MuSamples = append(out.MuSamples, ev.mu)
		out.PhiStars = append(out.PhiStars, ev.bestPhi)
		out.MaxYs = append(out.MaxYs, ev.bestY)
	}

	bestIdx := 0
	for i := range sumY {
		if sumY[i] > sumY[bestIdx] {
			bestIdx = i
		}
	}
	out.RobustPhi = grid[bestIdx]
	out.RobustEY = sumY[bestIdx] / float64(out.SamplesUsed)

	plugIn := p
	plugIn.MuNew = posterior.Mean()
	a, err := newAnalyzer(plugIn, core.Options{Parametric: opts.Parametric})
	if err != nil {
		return nil, err
	}
	best, err := a.OptimalPhi(grid)
	if err != nil {
		return nil, err
	}
	out.PlugInPhi = best.Phi

	sort.Float64s(out.MuSamples)
	sort.Float64s(out.PhiStars)
	sort.Float64s(out.MaxYs)
	return out, nil
}
