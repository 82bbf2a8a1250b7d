package core

import (
	"context"
	"fmt"
	"math"
	"strings"

	"guardedop/internal/mdcd"
	"guardedop/internal/robust"
)

// CheckResult records one check of the self-check suite.
type CheckResult struct {
	// Name identifies the check, e.g. "curve" or "Y(0) identity".
	Name string
	// OK reports whether the check passed.
	OK bool
	// Detail explains a failure (or carries a short note on success).
	Detail string
}

// SelfCheckReport is the outcome of the invariant suite for one parameter
// set.
type SelfCheckReport struct {
	Params mdcd.Params
	Checks []CheckResult
}

// Failed returns the number of failed checks.
func (r *SelfCheckReport) Failed() int {
	n := 0
	for _, c := range r.Checks {
		if !c.OK {
			n++
		}
	}
	return n
}

// Err returns nil when every check passed, otherwise an error wrapping
// robust.ErrInvariant that names the failed checks.
func (r *SelfCheckReport) Err() error {
	var failed []string
	for _, c := range r.Checks {
		if !c.OK {
			failed = append(failed, c.Name)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return fmt.Errorf("core: self-check failed [%s]: %w", strings.Join(failed, ", "), robust.ErrInvariant)
}

// String renders the report one check per line, PASS/FAIL first.
func (r *SelfCheckReport) String() string {
	var b strings.Builder
	for _, c := range r.Checks {
		verdict := "PASS"
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "%s  %-28s %s\n", verdict, c.Name, c.Detail)
	}
	return b.String()
}

// selfCheckYZeroTol bounds |Y(0) − 1|: with no guarded operation the
// residual mission worth equals the immediate-upgrade worth, so the index
// is exactly one up to round-off.
const selfCheckYZeroTol = 1e-9

// SelfCheck runs the analyzer invariant suite for one parameter set: model
// construction, the solved overhead fractions, a φ-grid sweep in which
// every point must satisfy the per-evaluation invariants (probabilities in
// [0,1], finite worths, E[W_φ] ≤ E[W_I]), the boundary identity Y(0) = 1,
// and the continuous optimizer. gridPoints ≤ 0 selects 20 intervals.
//
// The report is always returned, including on early failures; the error
// mirrors report.Err() except for context cancellation, which is returned
// as-is.
func SelfCheck(ctx context.Context, p mdcd.Params, gridPoints int) (*SelfCheckReport, error) {
	if gridPoints <= 0 {
		gridPoints = 20
	}
	rep := &SelfCheckReport{Params: p}
	add := func(name string, ok bool, detail string) {
		rep.Checks = append(rep.Checks, CheckResult{Name: name, OK: ok, Detail: detail})
	}

	if err := p.Validate(); err != nil {
		add("parameter validation", false, err.Error())
		return rep, rep.Err()
	}
	add("parameter validation", true, "")

	a, err := NewAnalyzer(p)
	if err != nil {
		add("model construction", false, err.Error())
		return rep, rep.Err()
	}
	add("model construction", true, "")

	rho1, rho2 := a.Rho()
	if err := robust.CheckProbability("rho1", rho1, probabilityTol); err != nil {
		add("overhead fractions", false, err.Error())
	} else if err := robust.CheckProbability("rho2", rho2, probabilityTol); err != nil {
		add("overhead fractions", false, err.Error())
	} else {
		add("overhead fractions", true, fmt.Sprintf("rho1=%.4f rho2=%.4f", rho1, rho2))
	}

	grid := SweepGrid(p.Theta, gridPoints)
	pr, err := a.CurvePartialWorkers(ctx, grid, 0)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			add("phi-grid invariants", false, err.Error())
			return rep, err
		}
		add("phi-grid invariants", false, err.Error())
		return rep, rep.Err()
	}
	if pr.Report.Failed() > 0 {
		add("phi-grid invariants", false, pr.Report.Summary())
	} else {
		add("phi-grid invariants", true, fmt.Sprintf("%d points evaluated", len(grid)))
	}

	// Boundary identity: with φ = 0 the guarded phase is empty, so
	// E[W_φ] = E[W_0] and Y(0) = 1 by construction (Eq. 1).
	if pr.OK[0] {
		y0 := pr.Results[0].Y
		if math.Abs(y0-1) > selfCheckYZeroTol {
			add("Y(0) identity", false, fmt.Sprintf("Y(0) = %g, want 1", y0))
		} else {
			add("Y(0) identity", true, "")
		}
	} else {
		add("Y(0) identity", false, "phi=0 failed to evaluate")
	}

	best, err := a.OptimizePhiContext(ctx, OptimizeOptions{GridPoints: gridPoints})
	switch {
	case err != nil:
		add("continuous optimizer", false, err.Error())
	case best.Phi < 0 || best.Phi > p.Theta || math.IsNaN(best.Y):
		add("continuous optimizer", false, fmt.Sprintf("phi*=%g Y=%g out of range", best.Phi, best.Y))
	default:
		add("continuous optimizer", true, fmt.Sprintf("phi*=%.0f Y=%.4f", best.Phi, best.Y))
	}

	return rep, rep.Err()
}
