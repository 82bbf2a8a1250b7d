// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 6): the reward-structure tables (Tables 1-2), the
// parameter assignment (Table 3), the four φ-sweep figures (Figures 9-12),
// the low-coverage text experiments, and the simulation cross-validation
// of the model translation.
//
// Each experiment is addressable by id (used by cmd/gsueval and by the
// benchmark suite) and produces a plain-text report comparing the
// reproduction against the paper's published expectation.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
)

// Experiment is one reproducible artefact of the paper.
type Experiment struct {
	// ID is the stable handle, e.g. "fig9" or "table2".
	ID string
	// Title names the paper artefact.
	Title string
	// Paper summarises what the paper reports for this artefact.
	Paper string
	// Run executes the experiment and writes a human-readable report. ctx
	// carries the run's tracer and deadline: the long experiments (valsim,
	// the posterior and optimizer studies) stop early once it is done,
	// with an error wrapping robust.ErrCanceled.
	Run func(ctx context.Context, w io.Writer) error
}

// registry holds all experiments keyed by ID.
var registry = map[string]Experiment{}

// register adds an experiment to the registry at package init time; it
// panics on a duplicate ID so a copy-paste error fails the first test run.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %q", e.ID))
	}
	registry[e.ID] = e
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}
