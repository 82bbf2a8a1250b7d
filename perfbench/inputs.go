package main

import (
	"fmt"
	"math"
	"math/rand"

	"guardedop/internal/mdcd"
	"guardedop/internal/template"
)

// Input generation. Every workload draws its inputs from math/rand
// streams seeded by --seed, so one seed always yields the same inputs;
// the program under test only ever sees the generated values.

// stream returns the deterministic generator for one purpose of one run.
// Distinct purposes (timed ops, warm-up ops, check sampling, ...) get
// distinct streams, so the timed inputs do not depend on how many
// warm-ups or checks ran before them.
func stream(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + purpose))
}

const (
	streamOps int64 = iota + 1
	streamWarmup
	streamCheck
	streamPalette
	streamFresh
	streamSchedule
)

func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return math.Exp(uniform(r, math.Log(lo), math.Log(hi)))
}

// paperFamily draws one parameter set around the paper's Table 3 along
// the Section 6 study axes: mission time θ, the upgraded version's fault
// rate µ_new, the acceptance-test coverage c, and the AT/checkpoint rates
// α = β. λ, µ_old and p_ext stay at Table 3. The bounds delimit θ and
// µ_new.
func paperFamily(r *rand.Rand, thetaLo, thetaHi, muLo, muHi float64) mdcd.Params {
	p := mdcd.DefaultParams()
	p.Theta = math.Round(uniform(r, thetaLo, thetaHi))
	p.MuNew = logUniform(r, muLo, muHi)
	p.Coverage = uniform(r, 0.85, 0.99)
	p.Alpha = math.Round(logUniform(r, 2000, 12000))
	p.Beta = p.Alpha
	return p
}

// inDomainParams is a family-sweep input: µ_new within the closed form's
// validated domain (µ ≤ 1e-2), so ParametricAuto serves it.
func inDomainParams(r *rand.Rand) mdcd.Params { return paperFamily(r, 5000, 15000, 1e-5, 1e-3) }

// outOfDomainParams is a numeric-sweep paper-model input: µ_new in
// (1e-2, 1e-1], outside the closed form's domain, so ParametricAuto
// declines it and the numeric engine answers every point.
func outOfDomainParams(r *rand.Rand, thetaLo, thetaHi float64) mdcd.Params {
	p := paperFamily(r, thetaLo, thetaHi, 1e-2, 1e-1)
	if p.MuNew <= 1e-2 {
		p.MuNew = math.Nextafter(1e-2, 1)
	}
	return p
}

// scenarioSpec builds an N-node templated scenario: node P1 runs the
// upgrade, the rest are plain, under the given guard policy, with the
// scenario-wide rates drawn like paperFamily's.
func scenarioSpec(r *rand.Rand, nodes int, policy template.GuardPolicy) *template.Spec {
	p := paperFamily(r, 5000, 15000, 1e-5, 1e-3)
	spec := &template.Spec{
		Name:     fmt.Sprintf("bench-n%d-%s", nodes, policy),
		Theta:    p.Theta,
		Coverage: p.Coverage,
		Alpha:    p.Alpha,
		Beta:     p.Beta,
		Defaults: template.NodeDefaults{Lambda: p.Lambda, PExt: p.PExt, MuOld: p.MuOld},
		Guard:    template.GuardSpec{Policy: policy},
	}
	if policy == template.PolicyAbortRetry {
		spec.Guard.Retries = 1
	}
	for i := 0; i < nodes; i++ {
		n := template.NodeSpec{Name: fmt.Sprintf("P%d", i+1)}
		if i == 0 {
			n.Upgrade = &template.UpgradeSpec{MuNew: p.MuNew}
		}
		spec.Nodes = append(spec.Nodes, n)
	}
	return spec
}
