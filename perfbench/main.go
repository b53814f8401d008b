// Command perfbench is eoml's end-to-end benchmark. It runs the real
// core pipeline on paper-shaped workloads against a warmed in-process
// LAADS archive, checks every shipped file against reference labels,
// and prints each end-to-end metric by name and unit. With -trace 1 it
// also runs the workload with span recording and a single-threaded
// replay, and prints the per-layer metrics instead. See README.md.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 144, "failed": 0, "metrics": {"setup_s": {"value": 0.0031, "unit": "s"}, ...}}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"time"
)

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string
}

const (
	// setupCycles extra bring-ups per process steady setup_s, a few
	// milliseconds each; every measured run adds its own.
	setupCycles = 101
	// p90Samples is the pooled latency sample count that lets p90 keep
	// ten samples beyond it; runs repeat until they reach it.
	p90Samples = 100
	// deadline bounds a whole workload process, so a wedged run fails
	// instead of hanging.
	deadline = 170 * time.Second
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: day-batch, downlink-stream, fleet-wan or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: picks the day of year and the granules")
	flag.IntVar(&o.seconds, "seconds", 10, "how long to measure, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for run files and the spans file")
	flag.Parse()
	o.trace = trace == 1
	if (trace != 0 && trace != 1) || o.seconds < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	var todo []workload
	if o.workload == "all" {
		todo = workloads
	} else if w, ok := findWorkload(o.workload); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	code := 0
	for _, w := range todo {
		res, err := runWorkload(ctx, w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
			break
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			code = 1
			break
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	stop()
	os.Exit(code)
}

// result is the JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload prepares the fixture, measures, checks and prints one
// workload's metrics, and returns its result line.
func runWorkload(ctx context.Context, w workload, o options) (*result, error) {
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	root, err := filepath.Abs(filepath.Join(o.work, fmt.Sprintf("run-%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	prep := time.Now()
	fx, err := newFixture(ctx, w, o.seed, root)
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	defer fx.close()
	fmt.Printf("# %s seed=%d doy=%d granules=%d tiles=%d tile=%dpx fixture=%.1fs gomaxprocs=%d\n",
		w.name, o.seed, fx.doy, len(fx.granules), fx.tiles, w.tilePixels(), time.Since(prep).Seconds(), runtime.GOMAXPROCS(0))

	var setups []float64
	for i := 0; i < setupCycles; i++ {
		s, err := fx.setupOnce(ctx)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	budget := time.Duration(o.seconds) * time.Second
	var ms []metric
	var all []repResult
	if !o.trace {
		reps, err := fx.measure(ctx, budget, false, p90Samples)
		if err != nil {
			return nil, err
		}
		all = reps
		ms, err = endToEnd(reps, setups)
		if err != nil {
			return nil, err
		}
	} else {
		untraced, err := fx.measure(ctx, budget/2, false, 0)
		if err != nil {
			return nil, err
		}
		rec := newRecorder()
		traced, err := fx.measure(ctx, budget/2, true, 0)
		if err != nil {
			return nil, err
		}
		rs, err := fx.replay(ctx, rec)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		ms = layerMetrics(rec, traced, untraced, rs)
		spans := filepath.Join(o.work, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		if err := rec.writeJSONL(spans); err != nil {
			return nil, err
		}
		fmt.Printf("# spans: %s (%d traced runs, %d untraced, replay of %d granules)\n", spans, len(traced), len(untraced), rs.granules)
		all = append(untraced, traced...)
	}

	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range all {
		res.Attempted += r.requested
		res.Failed += r.failed
		if len(r.problems) > 0 {
			res.Correct = false
		}
	}
	fmt.Printf("%-16s %-36s %14.6g %s (runs=%d)\n", w.name, "failed_fraction", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", len(all))
	for _, m := range ms {
		if !validName(m.name) {
			return nil, fmt.Errorf("invalid metric name %q", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
		fmt.Printf("%-16s %-36s %14.6g %s\n", w.name, m.name, m.value, m.unit)
	}
	return res, nil
}

// measure repeats runs until budget has passed and the runs hold at
// least minLatencies latency samples.
func (fx *fixture) measure(ctx context.Context, budget time.Duration, traced bool, minLatencies int) ([]repResult, error) {
	var reps []repResult
	samples := 0
	start := time.Now()
	for len(reps) == 0 || time.Since(start) < budget || samples < minLatencies {
		r, err := fx.runOnce(ctx, traced)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		samples += len(r.latencies)
		if len(r.problems) > 0 {
			for _, p := range r.problems {
				fmt.Fprintf(os.Stderr, "perfbench: %s: check: %s\n", fx.w.name, p)
			}
			break // a failing run will not heal; report it now
		}
	}
	return reps, nil
}

// setupOnce brings a system up and down once and returns the bring-up
// time.
func (fx *fixture) setupOnce(ctx context.Context) (float64, error) {
	dirs, err := newRunDirs(filepath.Join(fx.root, "setup"))
	if err != nil {
		return 0, err
	}
	cfg := fx.config(dirs)
	start := time.Now()
	sys, err := fx.bringUp(ctx, cfg, false)
	if err != nil {
		return 0, fmt.Errorf("bring-up: %w", err)
	}
	took := time.Since(start).Seconds()
	sys.close()
	return took, nil
}

// endToEnd computes the end-to-end metrics of untraced runs.
func endToEnd(reps []repResult, setups []float64) ([]metric, error) {
	var gps, tps, alloc []float64
	failed := false
	samples := 0
	for _, r := range reps {
		failed = failed || len(r.problems) > 0
		setups = append(setups, r.setup)
		gps = append(gps, float64(r.requested)/r.wall)
		tps = append(tps, float64(r.tiles)/r.wall)
		alloc = append(alloc, r.alloc/1e6/float64(r.requested))
		samples += len(r.latencies)
	}
	groups := latencyGroups(reps)
	var p50s, p90s []float64
	for _, g := range groups {
		p50, err50 := percentile(g, 0.5)
		p90, err90 := percentile(g, 0.9)
		if err := errors.Join(err50, err90); err != nil {
			if !failed {
				return nil, fmt.Errorf("granule latency: %w", err)
			}
			// Failed runs stop early; report what they measured beside
			// the failure instead of no result.
			p50, p90 = quantile(g, 0.5), quantile(g, 0.9)
		}
		p50s, p90s = append(p50s, p50), append(p90s, p90)
	}
	fmt.Printf("# %d runs, %d latency samples in %d groups, %d set-ups; run wall s:", len(reps), samples, len(groups), len(setups))
	for _, r := range reps {
		fmt.Printf(" %.3f", r.wall)
	}
	fmt.Print("; run CPU s:")
	for _, r := range reps {
		fmt.Printf(" %.3f", r.cpu)
	}
	fmt.Println()
	return []metric{
		{"setup_s", "s", median(setups)},
		{"granules_per_s", "1/s", median(gps)},
		{"tiles_per_s", "1/s", median(tps)},
		{"granule_latency_p50_ms", "ms", median(p50s)},
		{"granule_latency_p90_ms", "ms", median(p90s)},
		{"alloc_mb_per_granule", "MB", median(alloc)},
	}, nil
}

// latencyGroups splits the runs' latency samples into groups of
// consecutive runs that each hold at least p90Samples, so every group
// has a p90 with ten samples beyond it; a remainder too small for a
// group joins the last one. Reporting the median of the groups'
// percentiles keeps one run slowed by a neighbour on the host from
// setting the tail of all of them.
func latencyGroups(reps []repResult) [][]float64 {
	var groups [][]float64
	var cur []float64
	for _, r := range reps {
		cur = append(cur, r.latencies...)
		if len(cur) >= p90Samples {
			groups = append(groups, cur)
			cur = nil
		}
	}
	switch {
	case len(cur) == 0:
	case len(groups) == 0:
		groups = append(groups, cur)
	default:
		groups[len(groups)-1] = append(groups[len(groups)-1], cur...)
	}
	return groups
}
