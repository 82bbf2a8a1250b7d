package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"guardedop/internal/robust"
)

// withTempExperiment registers a throwaway experiment and removes it on
// cleanup so the suite seen by other tests is unchanged.
func withTempExperiment(t *testing.T, e Experiment) {
	t.Helper()
	register(e)
	t.Cleanup(func() { delete(registry, e.ID) })
}

// fastExperiments narrows the registry to a cheap subset plus the
// injected ones, restoring the full registry on cleanup, so RunAll tests
// do not drag in Monte-Carlo suites.
func fastExperiments(t *testing.T, keep ...string) {
	t.Helper()
	saved := registry
	registry = map[string]Experiment{}
	for _, id := range keep {
		if e, ok := saved[id]; ok {
			registry[id] = e
		}
	}
	t.Cleanup(func() { registry = saved })
}

func TestRunAllKeepGoingRecordsFailuresAndContinues(t *testing.T) {
	fastExperiments(t, "table3")
	withTempExperiment(t, Experiment{
		ID:    "aa-failing",
		Title: "injected failure",
		Run: func(_ context.Context, w io.Writer) error {
			return errors.New("injected solver blowup")
		},
	})
	withTempExperiment(t, Experiment{
		ID:    "zz-panicking",
		Title: "injected panic",
		Run: func(_ context.Context, w io.Writer) error {
			panic("index out of range")
		},
	})
	var sb strings.Builder
	rep, err := RunAll(context.Background(), &sb, RunOptions{KeepGoing: true})
	if err != nil {
		t.Fatalf("keep-going run aborted: %v", err)
	}
	if rep.Report.Failed() != 2 || rep.Report.Succeeded() != 1 {
		t.Fatalf("report: %s", rep.Summary())
	}
	failed := rep.FailedIDs()
	if failed[0] != "aa-failing" || failed[1] != "zz-panicking" {
		t.Errorf("failed ids = %v", failed)
	}
	if !errors.Is(rep.Report.Failures[1].Err, robust.ErrPanic) {
		t.Errorf("panic not classified: %v", rep.Report.Failures[1].Err)
	}
	// table3 ran despite aa-failing failing first.
	if !strings.Contains(sb.String(), "10000") {
		t.Errorf("surviving experiment produced no output:\n%s", sb.String())
	}
	if !strings.Contains(rep.Summary(), "aa-failing") {
		t.Errorf("summary does not name the failed experiment: %s", rep.Summary())
	}
}

func TestRunAllStopsWithoutKeepGoing(t *testing.T) {
	fastExperiments(t, "table3")
	withTempExperiment(t, Experiment{
		ID:    "aa-failing",
		Title: "injected failure",
		Run:   func(_ context.Context, w io.Writer) error { return errors.New("boom") },
	})
	var sb strings.Builder
	rep, err := RunAll(context.Background(), &sb, RunOptions{})
	if err == nil {
		t.Fatal("strict run swallowed the failure")
	}
	if rep.Report.Succeeded() != 0 {
		t.Errorf("experiments ran past the failure: %s", rep.Summary())
	}
}

func TestRunAllCancellation(t *testing.T) {
	fastExperiments(t, "table3")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunAll(ctx, io.Discard, RunOptions{KeepGoing: true})
	if !errors.Is(err, robust.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestRunAllDeadlineStopsRunningExperiment lets the batch deadline expire
// while an experiment is already running: the experiment must see the
// per-item context and stop early with ErrCanceled instead of running to
// completion. ext-validation stops between posterior draws; valsim, which
// takes ~50 s uninterrupted on two cores, stops before its next φ point.
func TestRunAllDeadlineStopsRunningExperiment(t *testing.T) {
	for _, id := range []string{"ext-validation", "valsim"} {
		t.Run(id, func(t *testing.T) {
			fastExperiments(t, id)
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := RunAll(ctx, io.Discard, RunOptions{KeepGoing: true})
			if !errors.Is(err, robust.ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if elapsed := time.Since(start); elapsed > 30*time.Second {
				t.Errorf("canceled run took %v", elapsed)
			}
		})
	}
}

// TestRunAllKeepGoingFailedCreateOmitsDividerAndReport is the regression
// for the stray-divider bug: an experiment whose output file cannot be
// created must be recorded as failed and contribute neither report text
// nor a divider, while the rest of the suite still runs.
func TestRunAllKeepGoingFailedCreateOmitsDividerAndReport(t *testing.T) {
	fastExperiments(t, "table3")
	withTempExperiment(t, Experiment{
		ID:    "aa-blocked",
		Title: "output file cannot be created",
		Run: func(_ context.Context, w io.Writer) error {
			fmt.Fprintln(w, "MUST-NOT-APPEAR")
			return nil
		},
	})
	dir := t.TempDir()
	// A directory squatting on the output path makes os.Create fail.
	if err := os.Mkdir(filepath.Join(dir, "aa-blocked.txt"), 0o755); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	rep, err := RunAll(context.Background(), &sb, RunOptions{
		KeepGoing: true, OutDir: dir, Divider: "=====",
	})
	if err != nil {
		t.Fatalf("keep-going run aborted on a failed create: %v", err)
	}
	if ids := rep.FailedIDs(); len(ids) != 1 || ids[0] != "aa-blocked" {
		t.Fatalf("failed ids = %v, want [aa-blocked]", ids)
	}
	out := sb.String()
	if strings.Contains(out, "MUST-NOT-APPEAR") {
		t.Error("experiment with failed output file still produced report text")
	}
	if strings.Contains(out, "=====") {
		t.Errorf("stray divider emitted for an empty report:\n%s", out)
	}
	if !strings.Contains(out, "10000") {
		t.Errorf("surviving experiment missing from output:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "table3.txt")); err != nil {
		t.Errorf("surviving experiment's file missing: %v", err)
	}
}

// TestRunAllParallelOutputInIDOrder runs experiments that deliberately
// finish in reverse order on a multi-worker pool and checks the emitted
// reports still appear in experiment-id order with one divider between
// each pair.
func TestRunAllParallelOutputInIDOrder(t *testing.T) {
	fastExperiments(t) // empty baseline
	ccDone := make(chan struct{})
	bbDone := make(chan struct{})
	withTempExperiment(t, Experiment{
		ID: "aa-last", Title: "finishes last",
		Run: func(_ context.Context, w io.Writer) error {
			<-bbDone
			fmt.Fprintln(w, "REPORT-aa")
			return nil
		},
	})
	withTempExperiment(t, Experiment{
		ID: "bb-middle", Title: "finishes second",
		Run: func(_ context.Context, w io.Writer) error {
			<-ccDone
			fmt.Fprintln(w, "REPORT-bb")
			close(bbDone)
			return nil
		},
	})
	withTempExperiment(t, Experiment{
		ID: "cc-first", Title: "finishes first",
		Run: func(_ context.Context, w io.Writer) error {
			fmt.Fprintln(w, "REPORT-cc")
			close(ccDone)
			return nil
		},
	})
	var sb strings.Builder
	rep, err := RunAll(context.Background(), &sb, RunOptions{
		KeepGoing: true, Workers: 3, Divider: "-----",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Report.Succeeded() != 3 {
		t.Fatalf("report: %s", rep.Summary())
	}
	out := sb.String()
	ia := strings.Index(out, "REPORT-aa")
	ib := strings.Index(out, "REPORT-bb")
	ic := strings.Index(out, "REPORT-cc")
	if ia < 0 || ib < 0 || ic < 0 || !(ia < ib && ib < ic) {
		t.Errorf("reports not in id order (aa@%d bb@%d cc@%d):\n%s", ia, ib, ic, out)
	}
	if n := strings.Count(out, "-----"); n != 2 {
		t.Errorf("divider count = %d, want 2:\n%s", n, out)
	}
}

func TestRunAllWritesPerExperimentFiles(t *testing.T) {
	fastExperiments(t, "table3")
	dir := t.TempDir()
	var sb strings.Builder
	if _, err := RunAll(context.Background(), &sb, RunOptions{OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/table3.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "10000") {
		t.Errorf("table3.txt incomplete:\n%s", data)
	}
}
