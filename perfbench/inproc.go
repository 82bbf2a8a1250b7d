package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"guardedop/internal/core"
	"guardedop/internal/ctmc"
	"guardedop/internal/mdcd"
	"guardedop/internal/modelcheck"
	"guardedop/internal/obs"
	"guardedop/internal/parametric"
	"guardedop/internal/statespace"
	"guardedop/internal/template"
)

// The two in-process workloads: one closed-loop caller issuing ops
// back to back, each op a fresh analyzer build plus the queries a user
// of gsueval -sweep makes on it.

// opInput is one op's generated input.
type opInput struct {
	params   mdcd.Params
	spec     *template.Spec // templated scenario; nil for a paper-model op
	points   int            // grid intervals over [0, θ]
	optimize bool           // also refine the optimum (OptimizePhiContext)
	workers  int            // solver workers (0 = all cores, the library default)
}

// theta is the op's mission time θ.
func (in opInput) theta() float64 {
	if in.spec != nil {
		return in.spec.Theta
	}
	return in.params.Theta
}

func (in opInput) grid() []float64 { return core.SweepGrid(in.theta(), in.points) }

// opOutput is what an op returns to the checks.
type opOutput struct {
	curve      []core.Result
	best       core.Result
	parametric bool // the analyzer serves points from the closed form
}

// inprocWorkload describes one in-process workload.
type inprocWorkload struct {
	name string
	// next returns the i-th input of a stream.
	next func(r *rand.Rand, i int) opInput
	// numericOnly marks a workload every op of which must be answered by
	// the numeric engine; a closed-form answer is then a failed op.
	numericOnly bool
	// checkEvery is the mean spacing of the ops sampled for the untimed
	// cross-check against an independent route.
	checkEvery int
	// decompose runs the decomposed build in the traced run.
	decompose bool
}

var familySweep = inprocWorkload{
	name: "family-sweep",
	next: func(r *rand.Rand, _ int) opInput {
		return opInput{params: inDomainParams(r), points: 49, optimize: true}
	},
	checkEvery: 64,
	decompose:  true,
}

// numericSweep repeats a fixed cycle of eight ops: five paper-model ops
// whose 50-point grid steps the series engine solves with the dense Van
// Loan exponential (θ ≥ 1e4), one paper-model op whose steps fall under
// ctmc's uniformization budget (q·Δφ ≤ 2e5, θ ≤ 7.5e3) and so are
// uniformized, and two N=3 templated scenarios cycling through the four
// guard policies. A fixed cycle keeps each kind's share, and so the
// latency mix, independent of seed and run length: the op median falls
// inside the Van Loan paper-model mode and the tail inside the
// uniformized one.
var numericSweep = inprocWorkload{
	name: "numeric-sweep",
	next: func(r *rand.Rand, i int) opInput {
		switch i % 8 {
		case 2, 5:
			policies := template.Policies()
			spec := scenarioSpec(r, 3, policies[(i/4)%len(policies)])
			return opInput{spec: spec, points: 15, workers: 1}
		case 7:
			return opInput{params: outOfDomainParams(r, 5000, 7500), points: 49, workers: 1}
		default:
			return opInput{params: outOfDomainParams(r, 10000, 15000), points: 49, workers: 1}
		}
	},
	numericOnly: true,
	checkEvery:  16,
}

// buildAnalyzer builds the op's analyzer: template.Build plus
// NewScenarioAnalyzer for a scenario, NewAnalyzerWithOptions otherwise.
func buildAnalyzer(ctx context.Context, in opInput, mode core.ParametricMode, rec *recorder, parent int) (*core.Analyzer, error) {
	o := core.Options{Parametric: mode}
	if in.spec == nil {
		id := rec.start("core.build", parent)
		a, err := core.NewAnalyzerWithOptions(in.params, o)
		rec.end(id)
		return a, err
	}
	id := rec.start("template.build", parent)
	inst, err := template.Build(ctx, in.spec)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.start("core.build", parent)
	a, err := core.NewScenarioAnalyzer(core.ScenarioModels{
		Params: inst.Params, Gd: inst.Gd, NdNew: inst.NdNew, NdOld: inst.NdOld, Rhos: inst.Rhos,
	}, o)
	rec.end(id)
	return a, err
}

// runOp executes one op. rec is nil on the timed run.
func runOp(ctx context.Context, in opInput, rec *recorder, parent int) (opOutput, error) {
	a, err := buildAnalyzer(ctx, in, core.ParametricAuto, rec, parent)
	if err != nil {
		return opOutput{}, err
	}
	out := opOutput{parametric: a.Parametric()}
	grid := in.grid()
	id := rec.start("core.curve", parent)
	pr, err := a.CurvePartialWorkers(ctx, grid, in.workers)
	rec.end(id)
	if err != nil {
		return out, err
	}
	if err := pr.Report.Err(); err != nil {
		return out, err
	}
	out.curve = pr.Successes()
	if in.optimize {
		id := rec.start("core.optimize", parent)
		out.best, err = a.OptimizePhiContext(ctx, core.OptimizeOptions{Workers: in.workers})
		rec.end(id)
	}
	return out, err
}

// checkOp is the per-op output check: every grid point answered, Y(0) = 1
// (no guarded operation means no degradation), every Y finite.
func checkOp(w inprocWorkload, in opInput, out opOutput) error {
	grid := in.grid()
	if len(out.curve) != len(grid) {
		return fmt.Errorf("%d of %d points answered", len(out.curve), len(grid))
	}
	if math.Abs(out.curve[0].Y-1) > 1e-9 {
		return fmt.Errorf("Y(0) = %.17g, want 1", out.curve[0].Y)
	}
	for _, r := range out.curve {
		if math.IsNaN(r.Y) || math.IsInf(r.Y, 0) {
			return fmt.Errorf("Y(%g) = %g", r.Phi, r.Y)
		}
	}
	if in.optimize && (math.IsNaN(out.best.Y) || math.IsInf(out.best.Y, 0)) {
		return fmt.Errorf("optimum Y = %g", out.best.Y)
	}
	if w.numericOnly && out.parametric {
		return fmt.Errorf("closed form served an op meant for the numeric engine")
	}
	return nil
}

// crossCheck recomputes a sampled op along an independent route — a
// closed-form answer against a ParametricOff analyzer's series-engine
// curve (docs/PARAMETRIC.md), a numeric series-engine answer against
// point-wise EvaluateContext on a fresh analyzer (docs/PERFORMANCE.md) —
// and compares them with agree. It returns the largest relative
// difference on Y it saw, which the traced run reports.
func crossCheck(ctx context.Context, in opInput, out opOutput) (float64, error) {
	ref, err := buildAnalyzer(ctx, in, core.ParametricOff, nil, 0)
	if err != nil {
		return 0, fmt.Errorf("reference build: %w", err)
	}
	grid := in.grid()
	var refs []core.Result
	if out.parametric {
		if refs, err = ref.Curve(grid); err != nil {
			return 0, fmt.Errorf("reference curve: %w", err)
		}
	} else {
		for _, phi := range grid {
			r, err := ref.EvaluateContext(ctx, phi)
			if err != nil {
				return 0, fmt.Errorf("reference point %g: %w", phi, err)
			}
			refs = append(refs, r)
		}
	}
	worst := 0.0
	for i := range grid {
		d, err := agree(out.curve[i], refs[i], in.theta())
		if err != nil {
			return worst, err
		}
		worst = math.Max(worst, d)
	}
	return worst, nil
}

// relTol is the repository's documented agreement bar between its
// solution routes (docs/PARAMETRIC.md, docs/PERFORMANCE.md).
const relTol = 1e-9

// agree compares two answers for one φ at relTol, on the scales
// docs/PERFORMANCE.md documents: probabilities against max(|want|, 1),
// accumulated-worth quantities against the ideal worth E[W_I]. Two
// published measures are ratios, so they are held to the bar their
// inputs carry, propagated:
//
//   - γ = 1 − ∫τh/θ, and ∫τh is held to relTol·E[W_I], so γ is held to
//     relTol·E[W_I]/θ;
//   - Y = (E[W_I] − E[W_0]) / (E[W_I] − E[W_φ]), so a worth error within
//     the bar moves it by up to κ = E[W_I] / (E[W_I] − E[W_φ]) times the
//     bar; Y is held to relTol·κ·max(|Y|, 1).
//
// theta is the mission time θ. agree returns Y's relative difference.
func agree(got, want core.Result, theta float64) (float64, error) {
	kappa := want.EWI / (want.EWI - want.EWPhi)
	for _, c := range []struct {
		name  string
		a, b  float64
		scale float64
	}{
		{"Y", got.Y, want.Y, math.Max(math.Abs(want.Y), 1) * kappa},
		{"Gamma", got.Gamma, want.Gamma, want.EWI / theta},
		{"PS1", got.PS1, want.PS1, 0},
		{"PNoFailNewRem", got.PNoFailNewRem, want.PNoFailNewRem, 0},
		{"IntF", got.IntF, want.IntF, 0},
		{"Gd.PA1", got.Gd.PA1, want.Gd.PA1, 0},
		{"Gd.IntH", got.Gd.IntH, want.Gd.IntH, 0},
		{"Gd.IntHF", got.Gd.IntHF, want.Gd.IntHF, 0},
		{"YS1", got.YS1, want.YS1, want.EWI},
		{"YS2", got.YS2, want.YS2, want.EWI},
		{"EWPhi", got.EWPhi, want.EWPhi, want.EWI},
		{"Gd.IntTauH", got.Gd.IntTauH, want.Gd.IntTauH, want.EWI},
	} {
		scale := c.scale
		if scale == 0 {
			scale = math.Max(math.Abs(c.b), 1)
		}
		if !(math.Abs(c.a-c.b) <= relTol*scale) {
			return 0, fmt.Errorf("phi=%g %s: %.15g vs reference %.15g", got.Phi, c.name, c.a, c.b)
		}
	}
	return math.Abs(got.Y-want.Y) / math.Max(math.Abs(want.Y), 1), nil
}

// sampledOp is an op kept for the untimed cross-check.
type sampledOp struct {
	in  opInput
	out opOutput
}

// inprocRun is the outcome of one timed or traced loop.
type inprocRun struct {
	attempted, failed int
	yRelDiffMax       float64 // largest relative Y difference the cross-check saw
	lat               sample  // op latency, ms
	sampled           []sampledOp
	firstErr          error
}

func (r *inprocRun) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// crossCheckSampled runs the untimed cross-check on the sampled ops.
func (r *inprocRun) crossCheckSampled(ctx context.Context) {
	for _, s := range r.sampled {
		d, err := crossCheck(ctx, s.in, s.out)
		if err != nil {
			r.fail(fmt.Errorf("cross-check: %w", err))
		}
		r.yRelDiffMax = math.Max(r.yRelDiffMax, d)
	}
}

// warmupOps is how many untimed ops a set-up runs.
const warmupOps = 3

// inprocSetup is the set-up a run pays before its first timed op: the
// seeded input streams and warmupOps untimed warm-up ops, so lazy
// initialisation and heap growth are not charged to the timed ops, then
// a GC. The warm-up inputs come from a fixed seed, so set-up does the
// same work in every run. A failing warm-up op is not a set-up failure:
// the same fault fails, and is counted on, the timed ops.
func inprocSetup(ctx context.Context, w inprocWorkload, seed int64) (ops, check *rand.Rand) {
	warm := stream(0, streamWarmup)
	for i := 0; i < warmupOps; i++ {
		_, _ = runOp(ctx, w.next(warm, i), nil, 0)
	}
	runtime.GC()
	return stream(seed, streamOps), stream(seed, streamCheck)
}

// setupRepeats is how many times a run sets up; it reports the median.
// The first set-up precedes the first timed op; the others are spread
// over the run with the op clock paused, so the median samples the
// machine at several moments of the run rather than at one.
const setupRepeats = 5

// timedSetup runs inprocSetup and returns its duration and the bytes it
// allocated.
func timedSetup(ctx context.Context, w inprocWorkload, seed int64) (time.Duration, uint64, *rand.Rand, *rand.Rand) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	ops, check := inprocSetup(ctx, w, seed)
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d, m1.TotalAlloc - m0.TotalAlloc, ops, check
}

// runInprocTimed is the --trace 0 run: closed loop for the given
// duration, tracing off.
func runInprocTimed(ctx context.Context, w inprocWorkload, seed int64, seconds int) (map[string]float64, *inprocRun, error) {
	d, _, ops, check := timedSetup(ctx, w, seed)
	setups := sample{d.Seconds()}
	var paused time.Duration // set-ups inside the loop
	var setupAlloc uint64
	run := &inprocRun{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Duration(seconds) * time.Second
	t0 := time.Now()
	for i := 0; time.Since(t0)-paused < deadline; i++ {
		if len(setups) < setupRepeats && time.Since(t0)-paused >= deadline*time.Duration(len(setups))/setupRepeats {
			p0 := time.Now()
			d, a, _, _ := timedSetup(ctx, w, seed)
			setups = append(setups, d.Seconds())
			setupAlloc += a
			paused += time.Since(p0)
		}
		in := w.next(ops, i)
		sampled := check.Intn(w.checkEvery) == 0
		s := time.Now()
		out, err := runOp(ctx, in, nil, 0)
		run.lat = append(run.lat, ms(time.Since(s)))
		run.attempted++
		if err == nil {
			err = checkOp(w, in, out)
		}
		if err != nil {
			run.fail(err)
			continue
		}
		if sampled {
			run.sampled = append(run.sampled, sampledOp{in, out})
		}
	}
	elapsed := time.Since(t0) - paused
	runtime.ReadMemStats(&m1)
	// Read the peak before the cross-check's reference solves can raise it.
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, nil, fmt.Errorf("reading peak RSS: %w", err)
	}
	run.crossCheckSampled(ctx)
	tail, pct, windows := run.lat.windowedTail()
	opsPerS := float64(run.attempted) / elapsed.Seconds()
	fmt.Printf("op_tail_ms is p%.2f, the median over %d windows of %d ops in all\n", pct, windows, len(run.lat))
	// One closed-loop caller sustains at most its own completion rate; it
	// meets the workload's latency limit at that rate if its tail does.
	maxRate := 0.0
	if tail <= latencyLimitMS[w.name] {
		maxRate = opsPerS
	}
	return map[string]float64{
		"setup_s":         setups.median(),
		"op_p50_ms":       run.lat.median(),
		"op_tail_ms":      tail,
		"ops_per_s":       opsPerS,
		"max_rate_rps":    maxRate,
		"alloc_mb_per_op": float64(m1.TotalAlloc-m0.TotalAlloc-setupAlloc) / 1e6 / float64(run.attempted),
		"peak_rss_mb":     rss,
	}, run, nil
}

// runInprocTraced is the --trace 1 run. Each op runs twice on the same
// input — once untraced, once with this package's spans and an obs
// tracer on its context — so the tracing overhead is the difference of
// the two medians within one run. Family-sweep ops are followed by the
// decomposed build on the same input.
func runInprocTraced(ctx context.Context, w inprocWorkload, seed int64, seconds int, tracePath string) (map[string]float64, *inprocRun, error) {
	ops, check := inprocSetup(ctx, w, seed)
	run := &inprocRun{}
	rec := newRecorder()
	var traced sample
	sum := make(map[string]float64) // per-layer totals over traced ops
	deadline := time.Duration(seconds) * time.Second
	t0 := time.Now()
	for i := 0; time.Since(t0) < deadline; i++ {
		in := w.next(ops, i)
		sampled := check.Intn(w.checkEvery) == 0
		s := time.Now()
		out, err := runOp(ctx, in, nil, 0)
		run.lat = append(run.lat, ms(time.Since(s)))
		run.attempted++
		if err == nil {
			err = checkOp(w, in, out)
		}
		if err != nil {
			run.fail(err)
			continue
		}
		if sampled {
			run.sampled = append(run.sampled, sampledOp{in, out})
		}

		rec.op = i
		tr := obs.NewTracer()
		tctx := obs.WithTracer(ctx, tr)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		passes0 := ctmc.SolveOps()
		s = time.Now()
		root := rec.start("op", 0)
		tout, err := runOp(tctx, in, rec, root)
		rec.end(root)
		traced = append(traced, ms(time.Since(s)))
		passes := ctmc.SolveOps() - passes0
		runtime.ReadMemStats(&m1)
		if err == nil {
			err = checkOp(w, in, tout)
		}
		if err != nil {
			run.fail(fmt.Errorf("traced op: %w", err))
			continue
		}
		c, st := tr.Counters(), tr.Stages()
		sum["ctmc.solve_passes"] += float64(passes)
		sum["obs.solve_passes"] += float64(c[obs.CtrSolvePasses])
		sum["core.fallback_points"] += float64(c[obs.CtrFallbackPoints])
		sum["parametric.hits"] += float64(c[obs.CtrParametricHits])
		sum["parametric.fallbacks"] += float64(c[obs.CtrParametricFallbacks])
		sum["template.states"] += float64(c[obs.CtrTemplateStates])
		sum["ctmc.expm_vanloan_calls"] += float64(st["ctmc.expm_vanloan"].Count)
		sum["ctmc.expm_vanloan_ms"] += float64(st["ctmc.expm_vanloan"].Nanos) / 1e6
		sum["ctmc.series_ms"] += float64(st["ctmc.series"].Nanos) / 1e6
		sum["ctmc.uniformize_ms"] += float64(st["ctmc.uniformize"].Nanos) / 1e6
		sum["go.gc_per_op"] += float64(m1.NumGC - m0.NumGC)
		if tout.parametric {
			sum["parametric.closed_form_share"]++
		}
		if in.spec != nil {
			sum["workload.scenario_share"]++
		}
		if w.decompose {
			if err := decomposedBuild(in.params, rec, rec.last("core.build"), sum); err != nil {
				run.fail(fmt.Errorf("decomposed build: %w", err))
			}
		}
	}
	run.crossCheckSampled(ctx)
	if err := rec.write(tracePath); err != nil {
		return nil, nil, fmt.Errorf("writing spans: %w", err)
	}

	n := float64(len(traced))
	if n == 0 {
		return nil, nil, fmt.Errorf("no traced op completed")
	}
	m := make(map[string]float64, len(sum)+16)
	for k, v := range sum {
		m[k] = v / n
	}
	for _, s := range rec.spans {
		switch s.Name {
		case "core.build", "core.curve", "core.optimize", "template.build",
			"parametric.build", "ctmc.steady", "ctmc.nofail", "statespace.generate",
			"modelcheck.check", "core.build_decomposed":
			m[s.Name+"_ms"] += ms(s.dur()) / n
		}
	}
	// Self time per layer of one op. The decomposed build hangs under the
	// op's core.build span, so core keeps only the build's residual; the
	// series engine's time inside core.curve (an obs stage, sequential at
	// one worker) moves from core to ctmc.
	for layer, v := range rec.selfMSByLayer() {
		m["self."+layer+"_ms"] = v / n
	}
	m["self.core_ms"] -= m["ctmc.series_ms"]
	m["self.ctmc_ms"] += m["ctmc.series_ms"]
	if w.decompose {
		// The stated residual: what core.NewAnalyzerWithOptions does beyond
		// the public calls the decomposed build makes (stacking the RMNd
		// pair, allocating the solve caches), plus measurement noise.
		parts := m["statespace.generate_ms"] + m["modelcheck.check_ms"] + m["ctmc.steady_ms"] +
			m["ctmc.nofail_ms"] + m["parametric.build_ms"]
		m["core.build_residual_ms"] = m["core.build_ms"] - parts
	}
	if m["core.curve_ms"] > 0 {
		m["ctmc.expm_vanloan_share_of_curve"] = m["ctmc.expm_vanloan_ms"] / m["core.curve_ms"]
	}
	m["check.y_rel_diff_max"] = run.yRelDiffMax
	m["op.untraced_p50_ms"] = run.lat.median()
	m["op.traced_p50_ms"] = traced.median()
	m["trace.overhead_ms"] = traced.median() - run.lat.median()
	return m, run, nil
}

// decomposedBuild repeats, one span each, the public calls
// core.NewAnalyzerWithOptions makes for p under ParametricAuto, so the
// traced run can attribute the build to the layers it crosses. Its spans
// hang under parent, the op's core.build span they re-enact (their
// interval follows the op's). sum receives the generated state count.
func decomposedBuild(p mdcd.Params, rec *recorder, parent int, sum map[string]float64) error {
	root := rec.start("core.build_decomposed", parent)
	defer rec.end(root)
	timed := func(name string, f func() error) error {
		id := rec.start(name, root)
		defer rec.end(id)
		return f()
	}
	verify := func(name string, sp *statespace.Space) error {
		sum["statespace.states"] += float64(sp.NumStates())
		return timed("modelcheck.check", func() error {
			return modelcheck.CheckSpace(name, sp, modelcheck.Options{}).Err()
		})
	}
	var (
		gd           *mdcd.RMGd
		gp           *mdcd.RMGp
		ndNew, ndOld *mdcd.RMNd
	)
	steps := []struct {
		name string
		f    func() error
	}{
		{"statespace.generate", func() (err error) { gd, err = mdcd.BuildRMGdWithOptions(p, mdcd.GdOptions{}); return }},
		{"", func() error { return verify("RMGd", gd.Space) }},
		{"statespace.generate", func() (err error) { gp, err = mdcd.BuildRMGp(p); return }},
		{"", func() error { return verify("RMGp", gp.Space) }},
		{"ctmc.steady", func() error { _, err := gp.Measures(); return err }},
		{"statespace.generate", func() (err error) { ndNew, err = mdcd.BuildRMNd(p, p.MuNew); return }},
		{"", func() error { return verify("RMNd(mu_new)", ndNew.Space) }},
		{"statespace.generate", func() (err error) { ndOld, err = mdcd.BuildRMNd(p, p.MuOld); return }},
		{"", func() error { return verify("RMNd(mu_old)", ndOld.Space) }},
		{"ctmc.nofail", func() error { _, err := ndNew.NoFailureProbability(p.Theta); return err }},
		// A declined closed form is not an error: Auto mode falls back.
		{"parametric.build", func() error { _, _ = parametric.NewSystem(p, gd, ndNew, ndOld); return nil }},
	}
	for _, s := range steps {
		var err error
		if s.name == "" {
			err = s.f()
		} else {
			err = timed(s.name, s.f)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
