// Package sensitivity quantifies how the optimal guarded-operation
// decision responds to each model parameter: a central-finite-difference
// local sensitivity analysis of the maximum performability index Y* and
// the optimal duration φ* around a base parameter set.
//
// This is the design-oriented reading of the paper's Section 6: Figures
// 9-12 vary one parameter at a time by hand; this package systematises the
// exercise into elasticities (d ln Y* / d ln p), ranking the parameters by
// influence — the tornado view a designer would want before committing to
// a duration.
package sensitivity

import (
	"context"
	"fmt"
	"math"
	"sort"

	"guardedop/internal/core"
	"guardedop/internal/mdcd"
)

// Parameter identifies one scalar model parameter.
type Parameter string

// The perturbable parameters.
const (
	Theta    Parameter = "theta"
	Lambda   Parameter = "lambda"
	MuNew    Parameter = "mu_new"
	MuOld    Parameter = "mu_old"
	Coverage Parameter = "coverage"
	PExt     Parameter = "p_ext"
	Alpha    Parameter = "alpha"
	Beta     Parameter = "beta"
)

// AllParameters lists every perturbable parameter in report order.
func AllParameters() []Parameter {
	return []Parameter{Theta, Lambda, MuNew, MuOld, Coverage, PExt, Alpha, Beta}
}

// apply returns a copy of p with the parameter scaled by factor. Coverage
// is clamped to 1 (it is a probability).
func apply(p mdcd.Params, param Parameter, factor float64) (mdcd.Params, error) {
	switch param {
	case Theta:
		p.Theta *= factor
	case Lambda:
		p.Lambda *= factor
	case MuNew:
		p.MuNew *= factor
	case MuOld:
		p.MuOld *= factor
	case Coverage:
		p.Coverage = math.Min(p.Coverage*factor, 1)
	case PExt:
		p.PExt = math.Min(p.PExt*factor, 1)
	case Alpha:
		p.Alpha *= factor
	case Beta:
		p.Beta *= factor
	default:
		return p, fmt.Errorf("sensitivity: unknown parameter %q", param)
	}
	return p, nil
}

// Result is the local sensitivity of the optimal decision to one parameter.
type Result struct {
	Parameter Parameter
	// RelDelta is the relative perturbation applied in each direction.
	RelDelta float64
	// BaseY/BasePhi describe the unperturbed optimum.
	BaseY, BasePhi float64
	// UpY/UpPhi and DownY/DownPhi describe the optima at p·(1+δ) and
	// p·(1−δ).
	UpY, UpPhi     float64
	DownY, DownPhi float64
	// YElasticity is d ln Y* / d ln p by central difference: the percent
	// change of the achievable index per percent change of the parameter.
	YElasticity float64
	// PhiShift is the φ* swing across the perturbation, in hours:
	// UpPhi − DownPhi.
	PhiShift float64
}

// Options tunes the analysis.
type Options struct {
	// RelDelta is the relative perturbation (default 0.10).
	RelDelta float64
	// Parameters restricts the analysis (default: all).
	Parameters []Parameter
	// Optimize configures the per-point optimal-φ search. The default
	// uses a θ/200 tolerance, accurate enough for elasticities while
	// keeping the 2·|Parameters|+1 optimizer runs fast.
	Optimize core.OptimizeOptions
}

func (o Options) withDefaults(theta float64) Options {
	if o.RelDelta == 0 {
		o.RelDelta = 0.10
	}
	if len(o.Parameters) == 0 {
		o.Parameters = AllParameters()
	}
	if o.Optimize.Tolerance == 0 {
		o.Optimize.Tolerance = theta / 200
	}
	return o
}

// Analyze perturbs each parameter by ±RelDelta, re-optimises φ, and returns
// per-parameter sensitivities sorted by descending |YElasticity|.
func Analyze(ctx context.Context, p mdcd.Params, opts Options) ([]Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(p.Theta)
	if opts.RelDelta <= 0 || opts.RelDelta >= 1 || math.IsNaN(opts.RelDelta) {
		return nil, fmt.Errorf("sensitivity: RelDelta = %g out of (0,1)", opts.RelDelta)
	}

	optimum := func(params mdcd.Params) (y, phi float64, err error) {
		a, err := core.NewAnalyzer(params)
		if err != nil {
			return 0, 0, err
		}
		opt := opts.Optimize
		// Scale the φ tolerance with the (possibly perturbed) horizon so a
		// θ perturbation searches at the same relative resolution.
		opt.Tolerance = opts.Optimize.Tolerance * params.Theta / p.Theta
		best, err := a.OptimizePhiContext(ctx, opt)
		if err != nil {
			return 0, 0, err
		}
		return best.Y, best.Phi, nil
	}

	baseY, basePhi, err := optimum(p)
	if err != nil {
		return nil, fmt.Errorf("sensitivity: base optimum: %w", err)
	}

	out := make([]Result, 0, len(opts.Parameters))
	for _, param := range opts.Parameters {
		up, err := apply(p, param, 1+opts.RelDelta)
		if err != nil {
			return nil, err
		}
		down, err := apply(p, param, 1-opts.RelDelta)
		if err != nil {
			return nil, err
		}
		upY, upPhi, err := optimum(up)
		if err != nil {
			return nil, fmt.Errorf("sensitivity: %s up: %w", param, err)
		}
		downY, downPhi, err := optimum(down)
		if err != nil {
			return nil, fmt.Errorf("sensitivity: %s down: %w", param, err)
		}
		r := Result{
			Parameter: param,
			RelDelta:  opts.RelDelta,
			BaseY:     baseY, BasePhi: basePhi,
			UpY: upY, UpPhi: upPhi,
			DownY: downY, DownPhi: downPhi,
			PhiShift: upPhi - downPhi,
		}
		if baseY > 0 {
			r.YElasticity = (upY - downY) / (2 * opts.RelDelta * baseY)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		return math.Abs(out[i].YElasticity) > math.Abs(out[j].YElasticity)
	})
	return out, nil
}
