package ctmc

import (
	"errors"
	"fmt"

	"guardedop/internal/sparse"
)

func errRewardLength(got, want int) error {
	return fmt.Errorf("ctmc: reward vector has length %d, want %d", got, want)
}

// Absorbing holds the results of absorbing-chain analysis: the partition
// into transient and absorbing states, eventual absorption probabilities,
// and expected times to absorption.
type Absorbing struct {
	// TransientStates and AbsorbingStates partition 0..N-1 (both sorted).
	TransientStates []int
	AbsorbingStates []int
	// Probabilities[i][j] is the probability that the chain started in
	// TransientStates[i] is eventually absorbed in AbsorbingStates[j].
	Probabilities [][]float64
	// MeanTime[i] is the expected time to absorption from TransientStates[i].
	MeanTime []float64

	transientIdx map[int]int
	absorbingIdx map[int]int
}

// AbsorbingAnalysis computes eventual absorption probabilities and mean
// times to absorption. It requires at least one absorbing state, and every
// transient state must reach some absorbing state with probability one
// (otherwise the fundamental-matrix solve fails and an error is returned).
func (c *Chain) AbsorbingAnalysis() (*Absorbing, error) {
	abs := c.AbsorbingStates()
	if len(abs) == 0 {
		return nil, errors.New("ctmc: chain has no absorbing states")
	}
	isAbs := make(map[int]bool, len(abs))
	for _, s := range abs {
		isAbs[s] = true
	}
	var trans []int
	for s := 0; s < c.n; s++ {
		if !isAbs[s] {
			trans = append(trans, s)
		}
	}
	a := &Absorbing{
		TransientStates: trans,
		AbsorbingStates: abs,
		transientIdx:    make(map[int]int, len(trans)),
		absorbingIdx:    make(map[int]int, len(abs)),
	}
	for i, s := range trans {
		a.transientIdx[s] = i
	}
	for j, s := range abs {
		a.absorbingIdx[s] = j
	}
	nt := len(trans)
	if nt == 0 {
		a.Probabilities = [][]float64{}
		a.MeanTime = []float64{}
		return a, nil
	}

	// Build the negated transient block -Q_TT (dense) and the coupling
	// block R = Q_TA.
	qtt := sparse.NewDense(nt, nt)
	r := sparse.NewDense(nt, len(abs))
	for i, s := range trans {
		c.gen.Row(s, func(cc int, v float64) {
			if ti, ok := a.transientIdx[cc]; ok {
				qtt.Set(i, ti, -v)
			} else {
				r.Set(i, a.absorbingIdx[cc], v)
			}
		})
	}
	f, err := sparse.FactorLU(qtt)
	if err != nil {
		return nil, fmt.Errorf("ctmc: transient block is singular (some state never absorbs): %w", err)
	}
	// Absorption probabilities: B = (-Q_TT)^{-1} R.
	b, err := f.SolveMatrix(r)
	if err != nil {
		return nil, err
	}
	a.Probabilities = make([][]float64, nt)
	for i := 0; i < nt; i++ {
		row := make([]float64, len(abs))
		copy(row, b.RowSlice(i))
		a.Probabilities[i] = row
	}
	// Mean time to absorption: τ = (-Q_TT)^{-1} 1.
	ones := make([]float64, nt)
	for i := range ones {
		ones[i] = 1
	}
	tau, err := f.Solve(ones)
	if err != nil {
		return nil, err
	}
	a.MeanTime = tau
	return a, nil
}

// AbsorptionProbability returns the probability of eventual absorption in
// state absState starting from distribution pi0 (mass already on absorbing
// states counts as absorbed there).
func (a *Absorbing) AbsorptionProbability(pi0 []float64, absState int) (float64, error) {
	j, ok := a.absorbingIdx[absState]
	if !ok {
		return 0, fmt.Errorf("ctmc: state %d is not absorbing", absState)
	}
	total := 0.0
	for s, p := range pi0 {
		if p == 0 {
			continue
		}
		if s == absState {
			total += p
			continue
		}
		if i, isTrans := a.transientIdx[s]; isTrans {
			total += p * a.Probabilities[i][j]
		}
	}
	return total, nil
}
