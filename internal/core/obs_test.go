package core

import (
	"context"
	"sync"
	"testing"
)

// Two analyzers sweeping the same grid concurrently must each report
// exactly their own solver passes in Metrics.Solves. The old accounting
// read a delta of the process-global ctmc counter, so a concurrent sweep
// leaked its passes into the other run's metrics; the context-scoped
// counters make the attribution exact.
func TestConcurrentAnalyzersAttributeOwnSolves(t *testing.T) {
	grid := SweepGrid(10000, 49) // the paper-scale 50-point acceptance grid

	ref := newAnalyzer(t, nil)
	pr, err := ref.CurvePartialWorkers(context.Background(), grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := pr.Report.Metrics.Solves
	if want <= 0 {
		t.Fatal("sequential baseline recorded no solver passes")
	}

	const runs = 2
	analyzers := make([]*Analyzer, runs)
	for i := range analyzers {
		analyzers[i] = newAnalyzer(t, nil)
	}
	solves := make([]int64, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range analyzers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr, err := analyzers[i].CurvePartialWorkers(context.Background(), grid, 2)
			if err != nil {
				errs[i] = err
				return
			}
			solves[i] = pr.Report.Metrics.Solves
		}()
	}
	wg.Wait()

	for i := range analyzers {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if solves[i] != want {
			t.Errorf("concurrent run %d reported %d solver passes, want exactly %d (pollution from the other run?)",
				i, solves[i], want)
		}
	}
}

// The golden-section refinement runs through the memo-cached point-wise
// path, so re-optimizing the same analyzer revisits every refinement φ
// from cache: the second search adds hits and zero new misses.
func TestOptimizeRefinementHitsSolveCache(t *testing.T) {
	a := newAnalyzer(t, nil)
	first, err := a.OptimizePhiContext(context.Background(), OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := a.CacheStats()["RMGd"]
	if before.Misses == 0 {
		t.Fatal("first optimization filled no cache entries — refinement bypassed the memo path?")
	}

	second, err := a.OptimizePhiContext(context.Background(), OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after := a.CacheStats()["RMGd"]
	if after.Misses != before.Misses {
		t.Errorf("second optimization missed cache %d times, want 0: refinement phis were not served from memo",
			after.Misses-before.Misses)
	}
	if after.Hits <= before.Hits {
		t.Errorf("second optimization recorded no cache hits (before %d, after %d)", before.Hits, after.Hits)
	}
	if second.Phi != first.Phi || second.Y != first.Y {
		t.Errorf("cached re-optimization diverged: (%g, %g) vs (%g, %g)", second.Phi, second.Y, first.Phi, first.Y)
	}
}
