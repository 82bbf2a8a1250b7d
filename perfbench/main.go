// Command perfbench is the repository's benchmark: three named workloads
// run against the code in the enclosing module, each reporting its
// end-to-end metrics (--trace 0) or its per-layer metrics (--trace 1)
// as one JSON line, after checking that every answer is correct.
// README.md documents the workloads, the metrics and how each layer
// metric maps onto the end-to-end ones.
//
// Usage:
//
//	perfbench --workload <family-sweep|numeric-sweep|serve-mix> --seed <n> --seconds <s> --trace <0|1> [--gsuserve <binary>]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics and their units; every workload
// reports all of them on the timed run.
var endToEnd = map[string]string{
	"setup_s":         "s",
	"op_p50_ms":       "ms",
	"op_tail_ms":      "ms",
	"ops_per_s":       "1/s",
	"max_rate_rps":    "req/s",
	"alloc_mb_per_op": "MB",
	"peak_rss_mb":     "MB",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "family-sweep, numeric-sweep or serve-mix")
		seed     = fs.Int64("seed", 1, "input seed")
		seconds  = fs.Int("seconds", 30, "measured duration of the run")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		gsuserve = fs.String("gsuserve", "", "gsuserve binary (serve-mix)")
		outDir   = fs.String("out", ".bench_build/perfbench", "directory the traced run writes its spans to")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	ctx := context.Background()
	traced := *trace == 1
	tracePath := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed))

	var (
		metrics           map[string]float64
		attempted, failed int
		firstErr          error
	)
	switch *workload {
	case "family-sweep", "numeric-sweep":
		w := familySweep
		if *workload == "numeric-sweep" {
			w = numericSweep
		}
		var r *inprocRun
		var err error
		if traced {
			metrics, r, err = runInprocTraced(ctx, w, *seed, *seconds, tracePath)
		} else {
			metrics, r, err = runInprocTimed(ctx, w, *seed, *seconds)
		}
		if err != nil {
			return err
		}
		attempted, failed, firstErr = r.attempted, r.failed, r.firstErr
	case "serve-mix":
		if *gsuserve == "" {
			return fmt.Errorf("serve-mix needs --gsuserve")
		}
		r, err := runServeMix(ctx, *gsuserve, *seed, *seconds, traced, tracePath)
		if err != nil {
			return err
		}
		metrics, attempted, failed, firstErr = r.metrics, r.attempted, r.failed, r.firstErr
	default:
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if firstErr != nil {
		fmt.Printf("first failure: %v\n", firstErr)
	}
	if attempted < 1 {
		return fmt.Errorf("no op attempted")
	}

	declared := endToEnd
	if traced {
		declared = perLayer()
	}
	res := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metric, len(declared)),
	}
	for name, unit := range declared {
		res.Metrics[name] = metric{Value: metrics[name], Unit: unit}
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s seed %d, %d s, trace %d: %d ops attempted, %d failed (failed_frac %.4g)\n",
		*workload, *seed, *seconds, *trace, attempted, failed, float64(failed)/float64(attempted))
	for _, name := range names {
		fmt.Printf("  %-40s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
