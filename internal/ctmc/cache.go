package ctmc

import (
	"context"
	"fmt"
	"sync"

	"guardedop/internal/obs"
)

// SolveCache memoizes full-horizon solves of one chain from one fixed
// initial distribution, keyed by the exact (bit-identical) time point. It
// backs the analyzer's repeated-evaluation hot paths — optimization
// refinement revisiting overlapping φ, repeated EvaluateContext calls, the several
// rewards of one model sharing a horizon — where the same (model, t) pair
// is solved over and over.
//
// Every fill is a fresh solve from t=0, so a hit returns bit-identical
// values to a miss and cache state (including eviction order) can never
// change a result. The cache is bounded: beyond capacity the oldest entry
// is evicted (FIFO), which is ideal for grid-plus-refinement access
// patterns where old horizons are not revisited.
//
// Concurrency: the cache is safe for any number of concurrent readers and
// fillers. One mutex guards the map, the FIFO order and the counters, and
// it is deliberately held across a miss's fill solve — so concurrent
// requests for the same horizon can never duplicate the solve (the second
// arrival finds the entry filled), at the cost of serializing concurrent
// fills of distinct horizons on the lock. That trade is right for both of
// the cache's uses: the per-analyzer memo paths are sequential, and on
// the gsuserve serving path (many requests sharing one cached analyzer,
// see docs/SERVING.md) duplicate-solve suppression is exactly the
// behaviour wanted under a thundering herd. Evicted entries are only
// dropped from the map, never mutated, so vectors returned before an
// eviction stay valid. TestSolveCacheConcurrentHammer exercises all of
// this under the race detector.
//
// Returned slices are the cache's backing arrays: callers must treat them
// as read-only.
type SolveCache struct {
	chain    *Chain
	pi0      []float64
	capacity int
	withAcc  bool

	mu        sync.Mutex
	entries   map[float64]*solveEntry
	order     []float64 // insertion order, for FIFO eviction
	hits      uint64
	misses    uint64
	evictions uint64
}

// solveEntry is one memoized horizon; acc is nil when the cache was built
// without accumulated solves.
type solveEntry struct {
	pi  []float64
	acc []float64
}

// NewSolveCache builds a cache over chain solves from the initial
// distribution pi0 (copied). capacity bounds the number of retained
// horizons (minimum 1; values below are raised). When withAccumulated is
// set every fill performs one combined transient+accumulated pass and both
// vectors are served; otherwise only π(t) is computed and requesting the
// accumulated view is an error. The mode is fixed at construction so a
// given horizon is always produced by the same solver path, keeping cached
// and uncached results bit-identical.
func NewSolveCache(chain *Chain, pi0 []float64, capacity int, withAccumulated bool) (*SolveCache, error) {
	if chain == nil {
		return nil, fmt.Errorf("ctmc: SolveCache needs a chain")
	}
	if err := chain.checkDistribution(pi0); err != nil {
		return nil, err
	}
	if capacity < 1 {
		capacity = 1
	}
	return &SolveCache{
		chain:    chain,
		pi0:      append([]float64(nil), pi0...),
		capacity: capacity,
		withAcc:  withAccumulated,
		entries:  make(map[float64]*solveEntry),
	}, nil
}

// TransientContext returns π(t), solving and memoizing on first use.
// Hits, misses, evictions, and any fill's solver pass report to the
// context's obs scope/tracer.
func (s *SolveCache) TransientContext(ctx context.Context, t float64) ([]float64, error) {
	e, err := s.lookup(ctx, t)
	if err != nil {
		return nil, err
	}
	return e.pi, nil
}

// TransientAccumulatedContext returns π(t) and L(t) = ∫₀ᵗ π(u)du from one
// memoized combined pass. The cache must have been built with
// withAccumulated set.
func (s *SolveCache) TransientAccumulatedContext(ctx context.Context, t float64) (pi, acc []float64, err error) {
	if !s.withAcc {
		return nil, nil, fmt.Errorf("ctmc: SolveCache was built without accumulated solves")
	}
	e, err := s.lookup(ctx, t)
	if err != nil {
		return nil, nil, err
	}
	return e.pi, e.acc, nil
}

// lookup serves a horizon from the memo, filling it with a full-horizon
// solve on a miss.
func (s *SolveCache) lookup(ctx context.Context, t float64) (*solveEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[t]; ok {
		s.hits++
		obs.Count(ctx, obs.CtrCacheHits, 1)
		return e, nil
	}
	s.misses++
	obs.Count(ctx, obs.CtrCacheMisses, 1)
	e := &solveEntry{}
	var err error
	if s.withAcc {
		e.pi, e.acc, err = s.chain.transientAccumulated(ctx, s.pi0, t)
	} else {
		e.pi, err = s.chain.TransientContext(ctx, s.pi0, t)
	}
	if err != nil {
		return nil, err
	}
	if len(s.order) >= s.capacity {
		evict := s.order[0]
		s.order = s.order[1:]
		delete(s.entries, evict)
		s.evictions++
		obs.Count(ctx, obs.CtrCacheEvictions, 1)
	}
	s.entries[t] = e
	s.order = append(s.order, t)
	return e, nil
}

// Snapshot returns the full cache statistics — hits, misses, evictions,
// and the number of currently memoized horizons — for run manifests.
func (s *SolveCache) Snapshot() obs.CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return obs.CacheStats{
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
		Len:       len(s.entries),
	}
}

// Len returns the number of memoized horizons.
func (s *SolveCache) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
