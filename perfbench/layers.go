package main

import "fmt"

// Per-layer metrics reported by every traced run. A metric of a layer
// the workload does not cross reads 0. README.md maps each one onto the
// end-to-end metric it should move.

// serveRoutes are the serve-mix routes, by metric label.
var serveRoutes = []struct{ label, path string }{
	{"curve", "/v1/curve"},
	{"optimize", "/v1/optimize"},
	{"propagate", "/v1/propagate"},
	{"scenario_curve", "/v1/scenario/curve"},
}

// latencyLimitMS is each workload's limit on op_tail_ms: a rate "meets
// the limit" when the tail latency at that rate stays within it.
var latencyLimitMS = map[string]float64{
	"family-sweep":  250,
	"numeric-sweep": 2500,
	"serve-mix":     1000,
}

// serveRates are serve-mix's fixed offered rates (requests per second);
// serveNominal indexes the one op_p50_ms and op_tail_ms are read at.
var serveRates = []float64{15, 20, 30}

const serveNominal = 0

func perLayer() map[string]string {
	m := map[string]string{
		"core.build_ms":                    "ms",
		"core.curve_ms":                    "ms",
		"core.optimize_ms":                 "ms",
		"core.fallback_points":             "count",
		"core.build_decomposed_ms":         "ms",
		"core.build_residual_ms":           "ms",
		"parametric.build_ms":              "ms",
		"parametric.hits":                  "count",
		"parametric.fallbacks":             "count",
		"parametric.closed_form_share":     "ratio",
		"ctmc.solve_passes":                "count",
		"obs.solve_passes":                 "count",
		"ctmc.expm_vanloan_calls":          "count",
		"ctmc.expm_vanloan_ms":             "ms",
		"ctmc.expm_vanloan_share_of_curve": "ratio",
		"ctmc.series_ms":                   "ms",
		"ctmc.uniformize_ms":               "ms",
		"ctmc.steady_ms":                   "ms",
		"ctmc.nofail_ms":                   "ms",
		"statespace.generate_ms":           "ms",
		"statespace.states":                "count",
		"modelcheck.check_ms":              "ms",
		"template.build_ms":                "ms",
		"template.states":                  "count",
		"workload.scenario_share":          "ratio",
		"serve.server_ms_per_req":          "ms",
		"serve.cache_hit_ratio":            "ratio",
		"serve.hot_hit_share":              "ratio",
		"serve.fresh_share":                "ratio",
		"serve.coalesced":                  "count",
		"serve.shed":                       "count",
		"serve.degraded":                   "count",
		"serve.errors":                     "count",
		"loadgen.lag_p99_ms":               "ms",
		"go.gc_per_op":                     "count",
		"op.untraced_p50_ms":               "ms",
		"op.traced_p50_ms":                 "ms",
		"trace.overhead_ms":                "ms",
		"check.y_rel_diff_max":             "ratio",
	}
	for _, layer := range []string{"op", "core", "template", "statespace", "modelcheck", "ctmc", "parametric", "serve", "loadgen"} {
		m["self."+layer+"_ms"] = "ms"
	}
	for _, r := range serveRoutes {
		m["serve.route."+r.label+".p50_ms"] = "ms"
		m["serve.route."+r.label+".tail_ms"] = "ms"
	}
	for k := range serveRates {
		m[fmt.Sprintf("serve.rate%d.p50_ms", k+1)] = "ms"
		m[fmt.Sprintf("serve.rate%d.tail_ms", k+1)] = "ms"
	}
	return m
}
