// Package stage is the unified stage-orchestration layer of the
// workflow: the five paper stages (download → preprocess → monitor &
// trigger → inference → shipment) are first-class Stage values with a
// shared lifecycle, and an Orchestrator drives any composition of them
// over one RunContext. The batch and streaming pipelines in
// internal/core are thin drivers that pick a stage order; everything
// they share — run directories, the telemetry epoch, timelines and
// spans, error aggregation, cancellation semantics — lives here once.
// Monitor & trigger lives inside InferenceService as a push, not a
// crawler: the driver's preprocess step hands each tile file it wrote
// to InferenceService.Submit, so only the run's own files are labeled.
//
// Lifecycle. Each stage moves through up to four phases:
//
//		setup → run → drain → close
//
//	  - Setup (optional) runs for every stage, in listed order, before any
//	    stage's Run. Long-lived services arm their background machinery
//	    here (e.g. the inference worker pool is ready before the first
//	    tile file exists, and preprocess pushes each file in as it is
//	    written), which is what lets inference overlap preprocessing
//	    exactly as in the paper's Fig. 6.
//	  - Run executes in listed order and is the stage's synchronous turn:
//	    a download stage fans out and blocks, a service stage blocks until
//	    its completion condition holds. The first Run error aborts the
//	    remaining runs and the drain phase.
//	  - Drain (optional) runs in listed order after every Run succeeded;
//	    it gracefully retires background work (join the worker pool,
//	    flush the batcher).
//	  - Close (optional) always runs, in reverse order, for every stage
//	    whose Setup succeeded — including on error and cancellation paths,
//	    so a failed run never leaks goroutines. Close must be idempotent.
//
// Error semantics. Every phase error is collected and the orchestrator
// returns errors.Join of all of them; if the context was cancelled the
// context error is part of the join, so errors.Is(err, context.Canceled)
// holds for any cancelled run regardless of which stage observed the
// cancellation first.
package stage

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/eoml/eoml/internal/metrics"
	"github.com/eoml/eoml/internal/trace"
)

// RunContext is the state one workflow run shares across all stages:
// the telemetry epoch and sinks, and the directories the run needs on
// disk. Stages receive the same RunContext in every phase.
type RunContext struct {
	// Epoch is the workflow start; Since and all Timeline/Spans offsets
	// are measured from it.
	Epoch time.Time
	// Timeline receives worker-activity samples (Fig. 6).
	Timeline *trace.Timeline
	// Spans receives one latency span per stage (Fig. 7), recorded by
	// the orchestrator around each stage's Run (extended through Drain
	// for stages that drain).
	Spans *trace.Spans
	// Metrics receives live per-stage series (events, failures,
	// latency). Nil is valid: stages instrument unconditionally and the
	// increments go to throwaway metrics.
	Metrics *metrics.Registry
	// Health tracks per-stage liveness for /healthz. Nil is valid.
	Health *metrics.Health
	// Dirs are created (MkdirAll) before the setup phase.
	Dirs []string
}

// Since returns seconds elapsed since the run epoch.
func (rc *RunContext) Since() float64 { return time.Since(rc.Epoch).Seconds() }

// Metric names and label values exported by the stage layer. EventIn
// counts units of work a stage accepted, EventOut units it completed;
// what a "unit" is (a granule, a tile file, a shipped product) is the
// stage's choice and documented in docs/OPERATIONS.md.
const (
	MetricStageEvents   = "eoml_stage_events_total"
	MetricStageFailures = "eoml_stage_failures_total"
	MetricStageSeconds  = "eoml_stage_seconds"
	EventIn             = "in"
	EventOut            = "out"
)

// EventCounter returns the events counter for a stage and direction
// (EventIn or EventOut), registering it on first use.
func (rc *RunContext) EventCounter(stageName, dir string) *metrics.Counter {
	return rc.Metrics.Counter(MetricStageEvents,
		"Units of work accepted (dir=in) and completed (dir=out) per pipeline stage.",
		metrics.L("stage", stageName), metrics.L("dir", dir))
}

// Event counts one completed unit of work for a stage in both sinks:
// the events counter and the stage's health stall clock.
func (rc *RunContext) Event(stageName, dir string) {
	rc.EventCounter(stageName, dir).Inc()
	rc.Health.Beat(stageName)
}

// instrument eagerly registers a stage's metric series and health entry
// so the catalogue is complete before any work happens.
func (rc *RunContext) instrument(stageName string) {
	rc.EventCounter(stageName, EventIn)
	rc.EventCounter(stageName, EventOut)
	rc.failures(stageName)
	rc.seconds(stageName)
	rc.Health.Watch(stageName, 0)
}

func (rc *RunContext) failures(stageName string) *metrics.Counter {
	return rc.Metrics.Counter(MetricStageFailures,
		"Stage lifecycle-phase errors observed by the orchestrator.",
		metrics.L("stage", stageName))
}

func (rc *RunContext) seconds(stageName string) *metrics.Histogram {
	return rc.Metrics.Histogram(MetricStageSeconds,
		"Wall-clock seconds per stage (Run, extended through Drain for stages that drain).",
		metrics.DurationBuckets(), metrics.L("stage", stageName))
}

// Stage is one unit of the workflow. Run is the stage's synchronous
// turn in driver order; stages with background machinery additionally
// implement Setupper, Drainer, and Closer.
type Stage interface {
	Name() string
	Run(ctx context.Context, rc *RunContext) error
}

// Setupper is implemented by stages that must arm resources before any
// stage runs (the setup phase).
type Setupper interface {
	Setup(ctx context.Context, rc *RunContext) error
}

// Drainer is implemented by stages with background work to retire
// gracefully after every Run succeeded (the drain phase).
type Drainer interface {
	Drain(ctx context.Context, rc *RunContext) error
}

// Closer is implemented by stages holding resources that must be
// released on every exit path. Close must be idempotent and safe to
// call after a failed or skipped Run.
type Closer interface {
	Close() error
}

// funcStage adapts a plain function to Stage.
type funcStage struct {
	name string
	run  func(ctx context.Context, rc *RunContext) error
}

func (f *funcStage) Name() string { return f.name }

func (f *funcStage) Run(ctx context.Context, rc *RunContext) error { return f.run(ctx, rc) }

// Func wraps a function as a run-phase-only stage.
func Func(name string, run func(ctx context.Context, rc *RunContext) error) Stage {
	return &funcStage{name: name, run: run}
}

// Orchestrator drives stages through the shared lifecycle over one
// RunContext.
type Orchestrator struct {
	rc *RunContext
}

// NewOrchestrator builds an orchestrator, filling RunContext defaults
// (epoch now, fresh telemetry sinks) where unset.
func NewOrchestrator(rc *RunContext) *Orchestrator {
	if rc == nil {
		rc = &RunContext{}
	}
	if rc.Epoch.IsZero() {
		rc.Epoch = time.Now()
	}
	if rc.Timeline == nil {
		rc.Timeline = trace.NewTimeline()
	}
	if rc.Spans == nil {
		rc.Spans = trace.NewSpans()
	}
	return &Orchestrator{rc: rc}
}

// Context returns the orchestrator's run context.
func (o *Orchestrator) Context() *RunContext { return o.rc }

// Execute drives the stages through setup → run → drain → close and
// returns the join of every error observed (nil on a clean run).
func (o *Orchestrator) Execute(ctx context.Context, stages ...Stage) error {
	var errs []error
	fail := func(st Stage, phase string, err error) {
		errs = append(errs, fmt.Errorf("stage %s: %s: %w", st.Name(), phase, err))
		o.rc.failures(st.Name()).Inc()
		o.rc.Health.Fail(st.Name())
	}

	for _, dir := range o.rc.Dirs {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}

	// Register every stage's series and health entry up front so the
	// full catalogue is visible on /metrics before any work happens.
	for _, st := range stages {
		o.rc.instrument(st.Name())
	}

	// Setup phase: arm in listed order. The close phase below unwinds
	// every stage whose Setup was attempted — including one that failed
	// partway, so a half-built service still releases what it allocated.
	armed, ok := 0, true
	for _, st := range stages {
		armed++
		if s, isSetup := st.(Setupper); isSetup {
			if err := s.Setup(ctx, o.rc); err != nil {
				fail(st, "setup", err)
				ok = false
				break
			}
		}
	}

	// Run phase: each stage takes its synchronous turn. The span for a
	// stage covers its Run, extended through its Drain if it drains.
	drainable := stages[:0:0]
	if ok {
		for _, st := range stages {
			if err := ctx.Err(); err != nil {
				ok = false
				break
			}
			o.rc.Health.SetState(st.Name(), metrics.StateRunning)
			span := o.rc.Spans.Begin(st.Name(), o.rc.Since())
			err := st.Run(ctx, o.rc)
			span.End(o.rc.Since())
			_, drains := st.(Drainer)
			if drains {
				drainable = append(drainable, st)
			}
			if err != nil {
				fail(st, "run", err)
				ok = false
				break
			}
			// The latency histogram mirrors the stage's final span: a
			// draining stage's span is extended below, so its sample
			// waits until drain completes.
			if !drains {
				o.rc.seconds(st.Name()).Observe(o.rc.Since() - span.Start())
				o.rc.Health.Done(st.Name())
			}
		}
	}

	// Drain phase: graceful retirement, only after a fully clean run
	// phase (the close phase handles teardown on error paths).
	if ok {
		for _, st := range drainable {
			sp, _ := o.rc.Spans.Get(st.Name())
			err := st.(Drainer).Drain(ctx, o.rc)
			o.rc.Spans.Add(st.Name(), sp.Start, o.rc.Since())
			if err != nil {
				fail(st, "drain", err)
				break
			}
			o.rc.seconds(st.Name()).Observe(o.rc.Since() - sp.Start)
			o.rc.Health.Done(st.Name())
		}
	}

	// Close phase: reverse order, every armed stage, every exit path.
	for i := armed - 1; i >= 0; i-- {
		if c, ok := stages[i].(Closer); ok {
			if err := c.Close(); err != nil {
				fail(stages[i], "close", err)
			}
		}
	}

	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
