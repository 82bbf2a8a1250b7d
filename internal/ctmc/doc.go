// Package ctmc implements continuous-time Markov chain analysis: transient
// state-probability solution, accumulated (time-integrated) state
// probabilities, steady-state solution, and absorption probabilities.
//
// A chain is described by its infinitesimal generator Q (off-diagonal entries
// are transition rates, diagonal entries make rows sum to zero) and an
// initial probability distribution.
//
// # Transient solution
//
// Two engines are provided and selected automatically by TransientContext,
// AccumulatedContext and the series and cache entry points built on them:
//
//   - Uniformization (Jensen's method) with Fox–Glynn-style Poisson weight
//     computation and optional steady-state detection. This is exact up to
//     truncation error and cheap when q·t is moderate, where q is the
//     uniformization rate (max |Q_ii| padding) and t the horizon.
//   - Dense matrix exponential via Padé(13) approximation with scaling and
//     squaring (Higham 2005). Cost is O(log2(‖Q‖t)·n³), independent of
//     stiffness, which makes it the right tool for the stiff horizons that
//     arise in the guarded-operation study (message rates of 1200/h against
//     fault rates of 1e-8/h over 10⁴ h, i.e. q·t ≈ 7·10⁷).
//
// Accumulated probabilities ∫₀ᵗ π(u) du — the kernel of expected
// interval-of-time reward variables — are computed either by the
// uniformization complementary-CDF formula or by exponentiating the
// augmented generator [[Q, I], [0, 0]], whose top-right block is the
// integral (Van Loan 1978).
//
// # Steady state
//
// SteadyState solves πQ = 0, Σπ = 1 by dense LU for small chains and by
// SOR/Gauss–Seidel or uniformized power iteration for larger ones.
//
// # Absorbing chains
//
// AbsorbingAnalysis partitions states into transient and absorbing sets and
// computes eventual absorption probabilities and the mean time to
// absorption via the fundamental matrix; AbsorptionProbability reads the
// probability of ending in one absorbing state off it.
package ctmc
