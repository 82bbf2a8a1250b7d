package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"guardedop/internal/mdcd"
	"guardedop/internal/obs"
	"guardedop/internal/robust"
)

// TestCurveCancelKeepsCompletedPrefix is the regression test for the
// serving path's partial-result contract: a curve sweep whose context is
// canceled between grid segments must return every point solved before
// the cancellation as a PartialResult — not an empty result with a bare
// error. The cancellation is triggered from the sweep's own trace: a
// watcher goroutine cancels the context as soon as the first
// "core.segment" span finishes, so at least one segment's points are in
// and (with 11 segments on the grid) later segments are still pending.
func TestCurveCancelKeepsCompletedPrefix(t *testing.T) {
	a, err := NewAnalyzer(mdcd.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	theta := a.Params().Theta
	grid := SweepGrid(theta, 320) // 321 points = 11 segments of <=32

	tr := obs.NewTracer()
	ctx, cancel := context.WithCancel(obs.WithTracer(context.Background(), tr))
	defer cancel()
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		for {
			if st := tr.Stages(); st["core.segment"].Count >= 1 {
				cancel()
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()

	pr, err := a.CurvePartialWorkers(ctx, grid, 1)
	<-watcherDone
	if pr == nil {
		t.Fatal("canceled sweep returned a nil PartialResult")
	}
	if pr.Report.Failed() == 0 {
		// The whole sweep outran the watcher — nothing was canceled, so
		// there is no prefix contract to check on this machine.
		t.Skip("sweep completed before the cancellation landed")
	}
	if err == nil {
		t.Fatalf("canceled sweep with %d failed points returned a nil error", pr.Report.Failed())
	}
	if !errors.Is(err, robust.ErrCanceled) {
		t.Fatalf("canceled sweep error = %v, want to wrap robust.ErrCanceled", err)
	}
	if got := pr.Report.Succeeded(); got == 0 {
		t.Fatalf("canceled sweep dropped its completed prefix: 0 successes of %d points (err: %v)", len(grid), err)
	}
	// Every failure must be accounted as a cancellation, and every success
	// must be a genuine solved point agreeing with the point-wise path.
	for _, f := range pr.Report.Failures {
		if !errors.Is(f.Err, robust.ErrCanceled) {
			t.Errorf("point %d failed with %v, want a cancellation", f.Index, f.Err)
		}
	}
	checked := 0
	for i, ok := range pr.OK {
		if !ok || checked >= 3 {
			continue
		}
		checked++
		want, err := a.EvaluateContext(context.Background(), grid[i])
		if err != nil {
			t.Fatalf("re-evaluating surviving point phi=%g: %v", grid[i], err)
		}
		if diff := math.Abs(pr.Results[i].Y - want.Y); diff > 1e-9*math.Abs(want.Y) {
			t.Errorf("surviving point phi=%g: Y=%g, point-wise %g", grid[i], pr.Results[i].Y, want.Y)
		}
	}
	if checked == 0 {
		t.Fatal("no surviving point available to cross-check")
	}
}

// TestCurveCanceledBeforeStart pins the boundary case: a context already
// dead when the sweep begins yields zero successes and an
// ErrCanceled-wrapping error, never a silent empty success.
func TestCurveCanceledBeforeStart(t *testing.T) {
	a, err := NewAnalyzer(mdcd.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pr, err := a.CurvePartialWorkers(ctx, SweepGrid(a.Params().Theta, 10), 1)
	if err == nil {
		t.Fatal("pre-canceled sweep returned a nil error")
	}
	if !errors.Is(err, robust.ErrCanceled) {
		t.Fatalf("pre-canceled sweep error = %v, want to wrap robust.ErrCanceled", err)
	}
	if pr != nil && pr.Report.Succeeded() != 0 {
		t.Fatalf("pre-canceled sweep reported %d successes", pr.Report.Succeeded())
	}
}
