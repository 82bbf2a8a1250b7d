package mdcd

import (
	"context"
	"fmt"

	"guardedop/internal/compose"
	"guardedop/internal/san"
	"guardedop/internal/statespace"
)

// RMNdN generalises the normal-mode model RMNd to n concurrently
// interacting processes — the direction of the authors' follow-up work on
// "a more general class of distributed embedded systems" (the paper's
// reference [16]). Process i manifests faults at its own rate; internal
// messages propagate contamination across the complete interaction graph
// (a contaminated sender's internal message contaminates its recipient,
// chosen uniformly among the peers); the first erroneous external message
// fails the system.
type RMNdN struct {
	Space   *statespace.Space
	Ctn     []*san.Place // per-process contamination flags
	Failure *san.Place
}

// BuildRMNdN constructs the n-process normal-mode model with per-process
// fault-manifestation rates mus (n = len(mus) ≥ 2). It is assembled with
// the compose package: one process template instantiated per process over
// the shared contamination/failure places.
func BuildRMNdN(p Params, mus []float64) (*RMNdN, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(mus)
	if n < 2 {
		return nil, fmt.Errorf("mdcd: RMNdN needs at least 2 processes, got %d", n)
	}
	for i, mu := range mus {
		if mu < 0 {
			return nil, fmt.Errorf("mdcd: negative fault rate %g for process %d", mu, i)
		}
	}

	specs := []compose.SharedPlaceSpec{{Name: "failure", Initial: 0}}
	for i := range mus {
		specs = append(specs, compose.SharedPlaceSpec{Name: ctnName(i), Initial: 0})
	}

	parts := make(map[string]compose.Template, n)
	for i := range mus {
		i, mu := i, mus[i]
		parts[fmt.Sprintf("P%d", i)] = func(m *san.Model, prefix string, shared compose.Shared) error {
			failure := shared["failure"]
			own := shared[ctnName(i)]
			alive := func(mk san.Marking) bool { return mk.Get(failure) == 0 }

			fm := m.AddTimedActivity(prefix+"fm", san.ConstRate(mu)).
				AddInputGate("enabled", func(mk san.Marking) bool {
					return alive(mk) && mk.Get(own) == 0
				}, nil)
			fm.AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) { mk.Set(own, 1) })

			msg := m.AddTimedActivity(prefix+"msg", san.ConstRate(p.Lambda)).
				AddInputGate("alive", alive, nil)
			msg.AddCase(func(mk san.Marking) float64 { // erroneous external
				if mk.Get(own) == 1 {
					return p.PExt
				}
				return 0
			}).AddOutputFunc(func(mk san.Marking) {
				mk.Set(failure, 1)
				for j := range mus {
					mk.Set(shared[ctnName(j)], 0) // collapse failure states
				}
			})
			msg.AddCase(func(mk san.Marking) float64 { // clean external
				if mk.Get(own) == 0 {
					return p.PExt
				}
				return 0
			})
			// Internal message to each peer with equal probability.
			for j := range mus {
				if j == i {
					continue
				}
				peer := shared[ctnName(j)]
				msg.AddCase(san.ConstProb((1 - p.PExt) / float64(n-1))).
					AddOutputFunc(func(mk san.Marking) {
						if mk.Get(own) == 1 {
							mk.Set(peer, 1)
						}
					})
			}
			return nil
		}
	}

	model, shared, err := compose.Join("RMNdN", specs, parts)
	if err != nil {
		return nil, err
	}
	sp, err := statespace.Generate(model, statespace.Options{})
	if err != nil {
		return nil, err
	}
	r := &RMNdN{Space: sp, Failure: shared["failure"]}
	for i := range mus {
		r.Ctn = append(r.Ctn, shared[ctnName(i)])
	}
	return r, nil
}

func ctnName(i int) string { return fmt.Sprintf("ctn%d", i) }

// NoFailureProbability returns P(no failure by t) for the n-process system.
func (r *RMNdN) NoFailureProbability(ctx context.Context, t float64) (float64, error) {
	rates := make([]float64, r.Space.NumStates())
	for i, mk := range r.Space.States {
		if mk.Get(r.Failure) == 0 {
			rates[i] = 1
		}
	}
	return r.Space.Chain.TransientRewardContext(ctx, r.Space.Initial, t, rates)
}
