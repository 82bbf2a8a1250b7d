package core

import (
	"context"
	"testing"

	"guardedop/internal/mdcd"
)

func BenchmarkNewAnalyzer(b *testing.B) {
	p := mdcd.DefaultParams()
	for i := 0; i < b.N; i++ {
		if _, err := NewAnalyzer(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluate(b *testing.B) {
	a, err := NewAnalyzer(mdcd.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.EvaluateContext(context.Background(), 7000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullSweep(b *testing.B) {
	a, err := NewAnalyzer(mdcd.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	grid := SweepGrid(10000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Curve(grid); err != nil {
			b.Fatal(err)
		}
	}
}
