// Command gsusim cross-validates the paper's model-translation solution of
// the performability index against Monte-Carlo simulation of the
// monolithic (untranslated, non-Markovian) GSU process.
//
// Usage:
//
//	gsusim                       # scaled-down default configuration
//	gsusim -paths 50000          # tighter confidence intervals
//	gsusim -full -paths 500      # paper-scale Table 3 parameters (slow!)
//	gsusim -rho                  # also validate rho1/rho2 by simulation
//	gsusim -metrics text         # dump run metrics to stderr (text|json|prom)
//	gsusim -trace run.json       # write the JSON trace document
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"guardedop/internal/experiments"
	"guardedop/internal/mdcd"
	"guardedop/internal/obs"
	"guardedop/internal/obs/pprofutil"
	"guardedop/internal/robust"
	"guardedop/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gsusim:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("gsusim", flag.ContinueOnError)
	var (
		paths      = fs.Int("paths", 20000, "Monte-Carlo replications per phi point")
		seed       = fs.Int64("seed", 2002, "random seed")
		full       = fs.Bool("full", false, "use the paper-scale Table 3 parameters (orders of magnitude slower)")
		checkRho   = fs.Bool("rho", false, "also estimate rho1/rho2 by long-run simulation of RMGp")
		metricsVal = fs.String("metrics", "", "dump run metrics to stderr after the cross-validation: \"text\", \"json\" or \"prom\"")
		traceOut   = fs.String("trace", "", "write a JSON trace and run manifest to this file (same schema as gsueval -trace; docs/OBSERVABILITY.md)")
		pprofSpec  = fs.String("pprof", "", "profiling: \"cpu[=file]\", \"mem[=file]\", or a host:port to serve net/http/pprof")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *metricsVal {
	case "", "text", "json", "prom":
	default:
		return fmt.Errorf("-metrics must be \"text\", \"json\" or \"prom\", got %q", *metricsVal)
	}
	if *pprofSpec != "" {
		stop, perr := pprofutil.StartPprof(*pprofSpec)
		if perr != nil {
			return perr
		}
		defer func() {
			if cerr := stop(); cerr != nil && err == nil {
				err = fmt.Errorf("pprof: %w", cerr)
			}
		}()
	}

	cfg := experiments.DefaultValsimConfig()
	cfg.Paths = *paths
	cfg.Seed = *seed
	if *full {
		p := mdcd.DefaultParams()
		cfg.Params = p
		cfg.Phis = []float64{0, 2000, 4000, 6000, 8000, 10000}
		fmt.Println("running at paper scale (theta=10000, lambda=1200); this simulates")
		fmt.Println("~10^7 events per path — budget minutes per phi point.")
	}

	// The tracer captures the cross-validation's analytic solver budget;
	// the trace document is written on success or failure.
	ctx := context.Background()
	var tracer *obs.Tracer
	if *traceOut != "" || *metricsVal != "" {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}
	if *traceOut != "" {
		man := obs.Manifest{
			Tool:       "gsusim",
			Seed:       *seed,
			GridPoints: len(cfg.Phis),
			Params: map[string]float64{
				"theta": cfg.Params.Theta, "lambda": cfg.Params.Lambda,
				"munew": cfg.Params.MuNew, "muold": cfg.Params.MuOld,
				"coverage": cfg.Params.Coverage, "pext": cfg.Params.PExt,
				"alpha": cfg.Params.Alpha, "beta": cfg.Params.Beta,
			},
		}
		defer func() {
			if werr := writeTraceFile(*traceOut, tracer, man); werr != nil && err == nil {
				err = werr
			}
		}()
	}
	if *metricsVal != "" {
		defer func() {
			if merr := dumpMetrics(*metricsVal, tracer); merr != nil && err == nil {
				err = merr
			}
		}()
	}

	if *checkRho {
		gp, err := mdcd.BuildRMGp(cfg.Params)
		if err != nil {
			return err
		}
		analytic, err := gp.Measures()
		if err != nil {
			return err
		}
		rho1, rho2, err := sim.EstimateRho(cfg.Params, 2000, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("rho1: analytic %.4f, simulated %.4f\n", analytic.Rho1, rho1)
		fmt.Printf("rho2: analytic %.4f, simulated %.4f\n\n", analytic.Rho2, rho2)
	}

	if tracer == nil && !*full && *paths == 20000 && *seed == 2002 {
		// Default untraced configuration: run the registered experiment's
		// full narrative report.
		e, ok := experiments.ByID("valsim")
		if !ok {
			return fmt.Errorf("valsim experiment not registered")
		}
		return e.Run(ctx, os.Stdout)
	}
	rows, err := experiments.RunValsimContext(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-12s %-22s %-10s %s\n", "phi", "Y analytic", "Y sim (fixed gamma)", "stderr", "Y sim (per-path)")
	for _, r := range rows {
		fmt.Printf("%-8.0f %-12.4f %-22.4f %-10.4f %.4f\n",
			r.Phi, r.AnalyticY, r.SimY, r.SimYStdErr, r.PerPathY)
	}
	return nil
}

// dumpMetrics writes the tracer's collected run metrics to stderr in the
// requested mode, through the same robust.Metrics vocabulary and shared
// Prometheus exposition path as gsueval -metrics and gsuserve /metrics.
func dumpMetrics(mode string, tr *obs.Tracer) error {
	m := robust.NewMetrics(0, 0)
	m.AddTrace(tr)
	switch mode {
	case "json":
		return m.WriteJSON(os.Stderr)
	case "prom":
		return m.WritePromWith(os.Stderr, tr.Histograms())
	default:
		m.WriteText(os.Stderr)
		return nil
	}
}

// writeTraceFile writes the run's trace document (manifest + span tree +
// histograms) to path as indented JSON.
func writeTraceFile(path string, tr *obs.Tracer, man obs.Manifest) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	werr := obs.WriteTrace(f, tr, man)
	if cerr := f.Close(); werr == nil && cerr != nil {
		werr = fmt.Errorf("trace: %w", cerr)
	}
	return werr
}
