package mdcd

import (
	"context"
	"math"
	"testing"
)

func TestRMNdNMatchesRMNdForTwoProcesses(t *testing.T) {
	p := DefaultParams()
	nd2, err := BuildRMNd(p, p.MuNew)
	if err != nil {
		t.Fatal(err)
	}
	ndn, err := BuildRMNdN(p, []float64{p.MuNew, p.MuOld})
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{1000, 5000, 10000} {
		a, err := nd2.NoFailureProbability(tt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ndn.NoFailureProbability(context.Background(), tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("t=%v: RMNd %v vs RMNdN %v", tt, a, b)
		}
	}
}

func TestRMNdNSimultaneousUpgradesCompoundRisk(t *testing.T) {
	// With k components freshly upgraded (mu_new each) in a 4-process
	// system, survival degrades roughly as exp(-k*mu_new*t).
	p := DefaultParams()
	tEnd := p.Theta
	prev := 2.0
	for k := 1; k <= 4; k++ {
		mus := make([]float64, 4)
		for i := range mus {
			if i < k {
				mus[i] = p.MuNew
			} else {
				mus[i] = p.MuOld
			}
		}
		nd, err := BuildRMNdN(p, mus)
		if err != nil {
			t.Fatal(err)
		}
		got, err := nd.NoFailureProbability(context.Background(), tEnd)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Exp(-float64(k) * p.MuNew * tEnd)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("k=%d: survival %.4f, want ≈ %.4f", k, got, want)
		}
		if got >= prev {
			t.Errorf("survival not decreasing at k=%d", k)
		}
		prev = got
	}
}

func TestRMNdNStateSpaceScales(t *testing.T) {
	p := DefaultParams()
	nd3, err := BuildRMNdN(p, []float64{p.MuNew, p.MuOld, p.MuOld})
	if err != nil {
		t.Fatal(err)
	}
	// 2^3 contamination states + 1 failure state = 9.
	if nd3.Space.NumStates() != 9 {
		t.Errorf("3-process states = %d, want 9", nd3.Space.NumStates())
	}
	if len(nd3.Ctn) != 3 {
		t.Errorf("Ctn places = %d, want 3", len(nd3.Ctn))
	}
}

func TestRMNdNValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := BuildRMNdN(p, []float64{1e-4}); err == nil {
		t.Error("single process accepted")
	}
	if _, err := BuildRMNdN(p, []float64{1e-4, -1}); err == nil {
		t.Error("negative rate accepted")
	}
	bad := p
	bad.PExt = 0
	if _, err := BuildRMNdN(bad, []float64{1e-4, 1e-8}); err == nil {
		t.Error("invalid params accepted")
	}
}
