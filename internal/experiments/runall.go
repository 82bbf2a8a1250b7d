package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"guardedop/internal/robust"
)

// RunOptions configures a batch run of every registered experiment.
type RunOptions struct {
	// KeepGoing skips a failed experiment (recording it in the report)
	// instead of aborting the batch at the first failure. Without
	// KeepGoing the batch runs sequentially (so nothing runs past the
	// first failure); with it, experiments run on a bounded worker pool.
	KeepGoing bool
	// OutDir, when non-empty, additionally writes each experiment's report
	// to <OutDir>/<id>.txt.
	OutDir string
	// Divider, when non-empty, is printed between consecutive experiment
	// reports.
	Divider string
	// Workers bounds how many experiments run concurrently when KeepGoing
	// is set: 0 (the default) uses every core, 1 runs sequentially. Each
	// experiment writes into its own buffer; the buffers are emitted to w
	// in experiment-id order once the batch has drained, so the output is
	// identical for every worker count.
	Workers int
}

// RunReport summarises a batch run of the experiment suite.
type RunReport struct {
	// IDs lists every experiment submitted, in run order.
	IDs []string
	// Report carries the per-experiment failures, indexed into IDs.
	Report *robust.Report
}

// FailedIDs returns the ids of the experiments that failed.
func (r *RunReport) FailedIDs() []string {
	out := make([]string, 0, r.Report.Failed())
	for _, f := range r.Report.Failures {
		out = append(out, r.IDs[f.Index])
	}
	return out
}

// Summary renders a one-line-per-failure account naming experiment ids.
func (r *RunReport) Summary() string {
	if r.Report.Failed() == 0 {
		return fmt.Sprintf("all %d experiments succeeded", r.Report.Total)
	}
	s := fmt.Sprintf("%d/%d experiments failed:", r.Report.Failed(), r.Report.Total)
	for _, f := range r.Report.Failures {
		s += fmt.Sprintf("\n  %s: %v", r.IDs[f.Index], f.Err)
	}
	return s
}

// RunAll executes every registered experiment in id order, writing each
// report to w (and optionally to per-experiment files). A panicking or
// failing experiment is recorded in the returned report; with
// opts.KeepGoing the batch continues past it, otherwise the batch stops
// there. The error is non-nil when the context is canceled, when
// KeepGoing is off and an experiment failed, or when an output file
// cannot be created.
//
// Each experiment renders into its own buffer and the buffers are written
// to w in experiment-id order after the batch drains, separated by
// opts.Divider — so concurrent experiments (opts.Workers) never
// interleave their output, and a divider is only ever emitted together
// with the report that follows it. An experiment that fails mid-report
// still has the partial output it produced emitted, exactly as the
// sequential runner did; an experiment whose output file cannot be
// created produces no output and therefore no divider.
//
// The RunReport is always returned (also alongside a non-nil error) so
// callers can tell which experiments completed.
func RunAll(ctx context.Context, w io.Writer, opts RunOptions) (*RunReport, error) {
	if opts.OutDir != "" {
		if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
			return &RunReport{Report: &robust.Report{}}, err
		}
	}
	all := All()
	rep := &RunReport{IDs: make([]string, len(all))}
	for i, e := range all {
		rep.IDs[i] = e.ID
	}
	// One buffer per experiment, indexed like the batch, written only by
	// the worker that owns the item.
	bufs := make([]bytes.Buffer, len(all))
	pr, err := robust.RunBatch(ctx, indicesOf(all), func(ictx context.Context, i int) (struct{}, error) {
		e := all[i]
		out := io.Writer(&bufs[i])
		var file *os.File
		if opts.OutDir != "" {
			var err error
			file, err = os.Create(filepath.Join(opts.OutDir, e.ID+".txt"))
			if err != nil {
				return struct{}{}, err
			}
			out = io.MultiWriter(&bufs[i], file)
		}
		err := e.Run(ictx, out)
		if file != nil {
			if cerr := file.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return struct{}{}, fmt.Errorf("%s: %w", e.ID, err)
		}
		return struct{}{}, nil
	}, robust.BatchOptions{StopOnError: !opts.KeepGoing, Workers: opts.Workers})
	rep.Report = pr.Report

	first := true
	for i := range bufs {
		if bufs[i].Len() == 0 {
			continue
		}
		if !first && opts.Divider != "" {
			if _, werr := fmt.Fprintf(w, "\n%s\n\n", opts.Divider); werr != nil {
				return rep, werr
			}
		}
		first = false
		if _, werr := w.Write(bufs[i].Bytes()); werr != nil {
			return rep, werr
		}
	}
	return rep, err
}

// indicesOf returns [0, len(s)) so a batch can range over item indices
// while the per-item state lives in slices owned by the caller.
func indicesOf(s []Experiment) []int {
	idx := make([]int, len(s))
	for i := range idx {
		idx[i] = i
	}
	return idx
}
