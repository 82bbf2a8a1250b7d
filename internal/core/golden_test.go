package core_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"guardedop/internal/core"
	"guardedop/internal/mdcd"
	"guardedop/internal/template"
)

// -update regenerates testdata/results.golden instead of comparing.
var update = flag.Bool("update", false, "rewrite the bit-exact core result golden file")

// goldenNative is set by golden_native_test.go on linux/amd64 at the
// default GOAMD64 level, the platform the golden file was generated on.
var goldenNative bool

// TestGoldenResultBits pins math.Float64bits of every float field of every
// Result the analyzer's public entry points produce on a fixed workload:
// the paper's 50-point grid (numeric and closed-form), the memo-cached
// point path, the optimizer in both modes and a three-node templated
// scenario. Any refactor of the solver stack that is meant to be
// behaviour-preserving must leave this file byte-identical; a deliberate
// numeric change regenerates it with
//
//	go test ./internal/core -run GoldenResultBits -update
//
// and reviews the diff.
func TestGoldenResultBits(t *testing.T) {
	if !goldenNative && !*update {
		t.Skipf("golden bits were generated on linux/amd64 (GOAMD64=v1); on %s/%s the compiler may fuse multiply-adds and change the last bits",
			runtime.GOOS, runtime.GOARCH)
	}
	got := goldenResults(t)
	path := filepath.Join("testdata", "results.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d deviates from golden data:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden data has %d lines, got %d", len(wl), len(gl))
}

// goldenResults runs the pinned workload and renders one line per float
// field: "<case> <field path> <hex bits>".
func goldenResults(t *testing.T) []byte {
	t.Helper()
	ctx := context.Background()
	p := mdcd.DefaultParams()
	analyzer := func(mode core.ParametricMode) *core.Analyzer {
		a, err := core.NewAnalyzerWithOptions(p, core.Options{Parametric: mode})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	numeric, closed := analyzer(core.ParametricOff), analyzer(core.ParametricAuto)
	if !closed.Parametric() {
		t.Fatal("closed-form layer declined the paper parameters")
	}
	grid := core.SweepGrid(p.Theta, 49)

	var buf bytes.Buffer
	emit := func(name string, rs ...core.Result) {
		for i, r := range rs {
			writeFloatBits(&buf, fmt.Sprintf("%s[%d]", name, i), reflect.ValueOf(r))
		}
	}

	curve, err := numeric.Curve(grid)
	if err != nil {
		t.Fatal(err)
	}
	emit("curve.off", curve...)

	pr, err := closed.CurvePartialWorkers(ctx, grid, 0)
	if err != nil {
		t.Fatal(err)
	}
	emit("curvepartial.auto", pr.Results...)

	for _, phi := range []float64{0, 0.05 * p.Theta, 0.2 * p.Theta, 0.5 * p.Theta, p.Theta} {
		r, err := numeric.EvaluateContext(ctx, phi)
		if err != nil {
			t.Fatal(err)
		}
		emit(fmt.Sprintf("evaluate.off(%g)", phi), r)
	}

	for _, c := range []struct {
		name string
		a    *core.Analyzer
	}{{"optimize.off", numeric}, {"optimize.auto", closed}} {
		r, err := c.a.OptimizePhiContext(ctx, core.OptimizeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		emit(c.name, r)
	}

	spec := template.PaperSpec()
	spec.Name = "three-node"
	spec.Nodes = append(spec.Nodes, template.NodeSpec{Name: "P3"})
	inst, err := template.Build(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	scen, err := core.NewScenarioAnalyzer(core.ScenarioModels{
		Params: inst.Params, Gd: inst.Gd, NdNew: inst.NdNew, NdOld: inst.NdOld, Rhos: inst.Rhos,
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	scurve, err := scen.Curve(core.SweepGrid(spec.Theta, 10))
	if err != nil {
		t.Fatal(err)
	}
	emit("scenario.n3.global", scurve...)
	return buf.Bytes()
}

// writeFloatBits walks v's fields depth-first, exported or not, and writes
// the IEEE-754 bits of each float64 it reaches.
func writeFloatBits(buf *bytes.Buffer, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		fmt.Fprintf(buf, "%s %016x\n", path, math.Float64bits(v.Float()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			writeFloatBits(buf, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	}
}
