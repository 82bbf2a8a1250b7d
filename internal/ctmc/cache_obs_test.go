package ctmc

import (
	"context"
	"testing"

	"guardedop/internal/obs"
)

// Snapshot must report hits, misses, evictions and the live entry count,
// and the same traffic must reach the obs counters carried by the context.
func TestSolveCacheSnapshotAndCounters(t *testing.T) {
	c := twoState(t, 1.5, 0.5)
	pi0, _ := c.PointMass(0)
	cache, err := NewSolveCache(c, pi0, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)

	// 3 distinct horizons through capacity 2: 3 misses, 1 eviction.
	for _, tt := range []float64{1, 2, 3} {
		if _, err := cache.TransientContext(ctx, tt); err != nil {
			t.Fatal(err)
		}
	}
	// One hit on a retained horizon.
	if _, err := cache.TransientContext(ctx, 3); err != nil {
		t.Fatal(err)
	}

	snap := cache.Snapshot()
	want := obs.CacheStats{Hits: 1, Misses: 3, Evictions: 1, Len: 2}
	if snap != want {
		t.Fatalf("Snapshot() = %+v, want %+v", snap, want)
	}
	if got := tr.Counter(obs.CtrCacheHits); got != 1 {
		t.Errorf("traced hits = %d, want 1", got)
	}
	if got := tr.Counter(obs.CtrCacheMisses); got != 3 {
		t.Errorf("traced misses = %d, want 3", got)
	}
	if got := tr.Counter(obs.CtrCacheEvictions); got != 1 {
		t.Errorf("traced evictions = %d, want 1", got)
	}
	// Each miss filled by one transient solve, each counted as a pass.
	if got := tr.Counter(obs.CtrSolvePasses); got != 3 {
		t.Errorf("traced solve passes = %d, want 3", got)
	}
}

// Context-carried scopes must see exactly the solver passes of their own
// region even when another goroutine's solves run concurrently on the
// global counter — the attribution fix for per-run Metrics.Solves.
func TestScopedSolveCountsUnpollutedByConcurrentSolves(t *testing.T) {
	c := twoState(t, 1.5, 0.5)
	pi0, _ := c.PointMass(0)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := c.TransientContext(context.Background(), pi0, 0.5); err != nil {
					return
				}
			}
		}
	}()

	ctx, scope := obs.WithScope(context.Background())
	const passes = 20
	for i := 0; i < passes; i++ {
		if _, err := c.TransientContext(ctx, pi0, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done

	if got := scope.Counter(obs.CtrSolvePasses); got != passes {
		t.Fatalf("scoped passes = %d, want exactly %d despite concurrent background solves", got, passes)
	}
}
