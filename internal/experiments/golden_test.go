package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates the golden CSVs instead of comparing against them.
var update = flag.Bool("update", false, "rewrite golden experiment CSVs")

// The solver stack is fully deterministic, so the figure curves are pinned
// byte-for-byte. Any change to the models or solvers that moves a published
// curve must be deliberate: regenerate with `go test ./internal/experiments
// -run Golden -update` and review the diff.
func TestGoldenFigureCurves(t *testing.T) {
	for _, id := range []string{"fig9", "fig10", "fig11", "fig11x", "fig12", "ablation-gamma"} {
		id := id
		t.Run(id, func(t *testing.T) {
			curves, err := goldenCurves(id)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteCurvesCSV(&buf, curves); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", id+".golden.csv")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s deviates from golden data; run with -update if intentional.\ngot:\n%s\nwant:\n%s",
					id, buf.String(), string(want))
			}
		})
	}
}

// goldenCurves resolves a curve set for the golden tests: the figure
// experiments plus the deterministic gamma ablation.
func goldenCurves(id string) ([]Curve, error) {
	if id == "ablation-gamma" {
		byPolicy, err := GammaAblation(context.Background())
		if err != nil {
			return nil, err
		}
		out := make([]Curve, 0, len(byPolicy))
		for _, c := range byPolicy {
			out = append(out, c)
		}
		// Map iteration order is random; sort by label for stable CSVs.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j].Label < out[j-1].Label; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out, nil
	}
	return CurvesByFigure(id)
}
