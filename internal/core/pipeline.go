package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/compute"
	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/metrics"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/provenance"
	"github.com/eoml/eoml/internal/stage"
	"github.com/eoml/eoml/internal/trace"
)

// Report summarizes a completed pipeline run.
type Report struct {
	GranulesRequested int
	FilesDownloaded   int
	BytesDownloaded   int64
	TileFiles         int // granules that yielded ocean-cloud tiles
	TilesProduced     int
	TilesLabeled      int
	FilesShipped      int
	FlowsFailed       int // label-and-move flows that errored
	Elapsed           time.Duration

	// Stage telemetry (Fig. 6 / Fig. 7 counterparts for real runs).
	Timeline *trace.Timeline
	Spans    *trace.Spans

	// Metrics is the final registry snapshot, so batch runs keep parity
	// with a live /metrics scrape of a streaming run.
	Metrics []metrics.Family
}

// Run is one isolated execution of the five-stage workflow, built by
// Engine.NewRun. Both execution modes — batch (Run) and streaming
// (RunStream) — are thin drivers over the same stage objects from
// internal/stage, composed in different orders. Every Run owns its own
// metric registry, health tracker, and stage state; the model weights,
// preprocess kernels, and archive quota it uses are the engine's shared
// ones.
type Run struct {
	cfg     Config
	id      string
	tenant  string
	labeler *aicca.Labeler
	prov    *provenance.Store
	// kernels is the engine-wide preprocess kernel set local runs
	// execute — the one every fleet worker serves — so concurrent runs
	// recycle one decode arena.
	kernels *fleet.Kernels
	// fleet leases preprocess/inference tasks to worker processes when
	// cfg.Distribution is "fleet"; nil otherwise.
	fleet   *fleet.Coordinator
	quota   *laads.Quota
	metrics *metrics.Registry
	health  *metrics.Health
}

// Pipeline is the legacy one-shot facade: a single-run Engine. It
// exists so code written against the original one-Pipeline-per-process
// API keeps compiling and behaving byte-identically; everything it does
// is a thin delegation to a Run built the same way the control plane
// builds them — one code path.
type Pipeline struct {
	run *Run
}

// New builds a one-shot pipeline. The labeler may be nil only if the
// config names model and codebook files to load.
func New(cfg Config, labeler *aicca.Labeler) (*Pipeline, error) {
	run, err := NewEngine(EngineOptions{Labeler: labeler}).NewRun(cfg, RunOptions{})
	if err != nil {
		return nil, err
	}
	return &Pipeline{run: run}, nil
}

// Run executes the batch workflow; see Run.Run.
func (p *Pipeline) Run(ctx context.Context) (*Report, error) { return p.run.Run(ctx) }

// RunStream executes the streaming workflow; see Run.RunStream.
func (p *Pipeline) RunStream(ctx context.Context, arrivals <-chan int) (*Report, error) {
	return p.run.RunStream(ctx, arrivals)
}

// SetProvenance attaches a provenance store to the underlying run.
func (p *Pipeline) SetProvenance(store *provenance.Store) { p.run.SetProvenance(store) }

// Metrics returns the underlying run's live metric registry.
func (p *Pipeline) Metrics() *metrics.Registry { return p.run.Metrics() }

// Health returns the underlying run's per-stage liveness tracker.
func (p *Pipeline) Health() *metrics.Health { return p.run.Health() }

// ID returns the control-plane identity of the run (empty for the
// legacy one-shot path).
func (p *Run) ID() string { return p.id }

// Tenant returns the tenant the run is attributed to (may be empty).
func (p *Run) Tenant() string { return p.tenant }

// Config returns the run's validated configuration.
func (p *Run) Config() Config { return p.cfg }

// Metrics returns the run's live metric registry. It implements
// http.Handler (Prometheus text exposition; JSON on request), so
// drivers can mount it directly on /metrics. When the run was built
// with a control-plane ID, every series carries run/tenant labels.
func (p *Run) Metrics() *metrics.Registry { return p.metrics }

// Health returns the run's per-stage liveness tracker. It implements
// http.Handler (200/503 with per-stage JSON), so drivers can mount it
// directly on /healthz.
func (p *Run) Health() *metrics.Health { return p.health }

// newReport builds the report and the shared run context every driver
// hands to the stage orchestrator.
func (p *Run) newReport(granules int) (*Report, *stage.RunContext) {
	rep := &Report{
		GranulesRequested: granules,
		Timeline:          trace.NewTimeline(),
		Spans:             trace.NewSpans(),
	}
	rc := &stage.RunContext{
		Epoch:    time.Now(),
		Timeline: rep.Timeline,
		Spans:    rep.Spans,
		Metrics:  p.metrics,
		Health:   p.health,
		Dirs:     []string{p.cfg.DataDir, p.cfg.TileDir, p.cfg.OutboxDir, p.cfg.DestDir},
	}
	return rep, rc
}

// inferenceService builds the shared monitor+inference stage: crawler,
// flow engine, cross-file batcher, and bounded worker pool, armed at
// setup so labeling overlaps preprocessing (the paper's Fig. 6).
func (p *Run) inferenceService() *stage.InferenceService {
	cfg := stage.InferenceConfig{
		Labeler:      p.labeler,
		BatchTiles:   p.cfg.BatchTiles,
		BatchDelay:   p.cfg.BatchDelay,
		Precision:    aicca.Precision(p.cfg.Precision),
		WatchDir:     p.cfg.TileDir,
		PollInterval: p.cfg.PollInterval,
		Workers:      p.cfg.InferenceWorkers,
		OutboxDir:    p.cfg.OutboxDir,
		StallTimeout: p.cfg.StallTimeout,
		OnMoved:      p.recordInference,
	}
	if p.cfg.Distribution == DistributionFleet {
		// Labeling runs on the fleet: the flow ships the tile file's
		// *path* plus model refs, a worker labels it in place on shared
		// storage, and the move step stays run-side.
		cfg.LabelFile = p.fleetLabelFile
	}
	return stage.NewInferenceService(cfg)
}

// fleetLabelFile is the fleet-distributed inference kernel call: one
// leased task per tile file, labels written in place by the worker.
func (p *Run) fleetLabelFile(ctx context.Context, path string) (int, error) {
	fut, err := p.fleet.Submit(ctx, fleet.LabelFunction, fleet.LabelArgs{
		File:      path,
		Model:     p.cfg.ModelPath,
		Codebook:  p.cfg.CodebookPath,
		Precision: p.cfg.Precision,
	}.Args())
	if err != nil {
		return 0, err
	}
	v, err := fut.Get(ctx)
	if err != nil {
		return 0, err
	}
	res, err := fleet.ParseLabelResult(v)
	return res.Labeled, err
}

// shipment builds the stage-5 transfer, skipped when upstream produced
// no tile files.
func (p *Run) shipment(svc *stage.InferenceService) *stage.Shipment {
	return stage.NewShipment(stage.ShipmentConfig{
		SrcDir:    p.cfg.OutboxDir,
		DestDir:   p.cfg.DestDir,
		Skip:      func() bool { return svc.Expected() == 0 },
		OnShipped: p.recordShipment,
	})
}

// finish copies the stage outcomes into the report.
func (p *Run) finish(rep *Report, rc *stage.RunContext, svc *stage.InferenceService, ship *stage.Shipment) {
	rep.TilesLabeled = svc.TilesLabeled()
	rep.FlowsFailed = svc.FlowsFailed()
	rep.FilesShipped = ship.FilesShipped()
	rep.Elapsed = time.Since(rc.Epoch)
	rep.Metrics = p.metrics.Snapshot()
}

// Run executes download → preprocess → monitor/trigger → inference →
// shipment and returns the run report. The inference service arms
// during orchestrator setup, so labeling overlaps preprocessing as in
// the paper's Fig. 6; shipment begins once every tile file is labeled.
func (p *Run) Run(ctx context.Context) (*Report, error) {
	rep, rc := p.newReport(len(p.cfg.GranuleIDs()))
	svc := p.inferenceService()
	ship := p.shipment(svc)

	download := stage.Func("download", func(ctx context.Context, rc *stage.RunContext) error {
		if p.cfg.Distribution == DistributionFleet {
			// Tasks ship granule refs, not bytes: each worker fetches the
			// granules it leases straight from the archive, so no data
			// moves through this process.
			rc.Health.Beat("download")
			rc.Timeline.Record("download", rc.Since(), 0)
			return nil
		}
		rc.EventCounter("download", stage.EventIn).Add(int64(3 * len(p.cfg.GranuleIDs())))
		files, bytes, err := p.downloadViaCompute(ctx, p.cfg.GranuleIDs(), func(active int) {
			rc.Timeline.Record("download", rc.Since(), active)
			rc.Health.Beat("download")
		})
		if err != nil {
			return err
		}
		rep.FilesDownloaded, rep.BytesDownloaded = files, bytes
		rc.EventCounter("download", stage.EventOut).Add(int64(files))
		return nil
	})
	preprocess := stage.Func("preprocess", func(ctx context.Context, rc *stage.RunContext) error {
		granules := p.cfg.GranuleIDs()
		rc.EventCounter("preprocess", stage.EventIn).Add(int64(len(granules)))
		pp, err := p.newPreprocessing(rc, "preprocess")
		if err != nil {
			return err
		}
		defer pp.close()
		for _, g := range granules {
			pp.preprocess(ctx, g, nil)
		}
		files, tiles, err := pp.wait()
		if err != nil {
			return err
		}
		rep.TileFiles, rep.TilesProduced = files, tiles
		rc.EventCounter("preprocess", stage.EventOut).Add(int64(files))
		svc.ExpectFiles(files)
		return nil
	})

	err := stage.NewOrchestrator(rc).Execute(ctx, download, preprocess, svc, ship)
	p.finish(rep, rc, svc, ship)
	if err != nil {
		// The partial report still carries telemetry and the FlowsFailed
		// count, so callers can see how far the run got.
		return rep, fmt.Errorf("core: %w", err)
	}
	return rep, nil
}

// taskFuture is the result handle both preprocess executors return.
type taskFuture interface {
	Get(ctx context.Context) (any, error)
}

// preprocessing runs one Run or RunStream call's preprocess tasks on
// the executor chosen once for the call: the fleet coordinator under
// distribution fleet, otherwise an in-process compute endpoint serving
// the engine's fleet.Kernels. Both run the same kernel on the same task
// arguments. It tallies the outcomes as tasks settle.
type preprocessing struct {
	run    *Run
	submit func(ctx context.Context, args map[string]any) (taskFuture, error)
	// archiveURL/archiveToken ride along on fleet tasks, so a worker
	// without the run's filesystem fetches the granule itself. Local
	// tasks carry none: the download stage has already filled DataDir,
	// so a missing input is a read error, never a second fetch.
	archiveURL, archiveToken string
	// taskDone observes every task's completion.
	taskDone func()
	// stopExecutor releases the executor once every task has settled.
	stopExecutor func()
	wg           sync.WaitGroup

	mu sync.Mutex
	// files counts granules that yielded a tile file. guarded by mu
	files int
	// tiles sums the tiles produced. guarded by mu
	tiles int
	// err is the first task failure. guarded by mu
	err error
}

// newPreprocessing chooses this call's executor. Locally that is a
// compute endpoint of cfg.PreprocessWorkers workers, labeled
// executor=label on the run's registry, whose worker count drives the
// preprocess timeline and health beat.
func (p *Run) newPreprocessing(rc *stage.RunContext, label string) (*preprocessing, error) {
	if p.cfg.Distribution == DistributionFleet {
		// Parallelism is bounded by fleet capacity, not a local pool; the
		// timeline records tasks submitted and not yet settled.
		var outstanding atomic.Int64
		mark := func(delta int64) {
			rc.Timeline.Record("preprocess", rc.Since(), int(outstanding.Add(delta)))
			rc.Health.Beat("preprocess")
		}
		return &preprocessing{
			run: p,
			submit: func(ctx context.Context, args map[string]any) (taskFuture, error) {
				fut, err := p.fleet.Submit(ctx, fleet.PreprocessFunction, args)
				if err != nil {
					return nil, err
				}
				mark(+1)
				return fut, nil
			},
			archiveURL:   p.cfg.ArchiveURL,
			archiveToken: p.cfg.ArchiveToken,
			taskDone:     func() { mark(-1) },
			stopExecutor: func() {},
		}, nil
	}
	reg := compute.NewRegistry()
	if err := p.kernels.Register(reg); err != nil {
		return nil, err
	}
	ep, err := compute.NewEndpoint(label, reg, compute.EndpointConfig{
		Workers: p.cfg.PreprocessWorkers,
		OnWorkerChange: func(busy int) {
			rc.Timeline.Record("preprocess", rc.Since(), busy)
			rc.Health.Beat("preprocess")
		},
	})
	if err != nil {
		return nil, err
	}
	ep.Instrument(p.metrics, label)
	ep.Start()
	return &preprocessing{
		run: p,
		submit: func(_ context.Context, args map[string]any) (taskFuture, error) {
			fut, err := ep.Submit(fleet.PreprocessFunction, args)
			if err != nil {
				return nil, err
			}
			return fut, nil
		},
		taskDone:     func() {},
		stopExecutor: ep.Stop,
	}, nil
}

// preprocess submits g's tile-extraction task at once, so tasks reach
// the executor in the caller's order, then waits for it on a goroutine
// of its own: parses the result, records provenance timed from
// submission to result, tallies it, and calls done (when set).
func (pp *preprocessing) preprocess(ctx context.Context, g modis.GranuleID, done func()) {
	p := pp.run
	started := time.Now()
	fut, err := pp.submit(ctx, fleet.PreprocessArgs{
		Satellite:    g.Satellite.String(),
		Year:         g.Year,
		DOY:          g.DOY,
		Index:        g.Index,
		DataDir:      p.cfg.DataDir,
		TileDir:      p.cfg.TileDir,
		TilePixels:   p.cfg.TilePixels,
		MinCloudFrac: p.cfg.MinCloudFrac,
		ArchiveURL:   pp.archiveURL,
		ArchiveToken: pp.archiveToken,
	}.Args())
	pp.wg.Add(1)
	go func() {
		defer pp.wg.Done()
		var res fleet.PreprocessResult
		if err == nil {
			var v any
			v, err = fut.Get(ctx)
			pp.taskDone()
			if err == nil {
				res, err = fleet.ParsePreprocessResult(v)
			}
		}
		if err == nil && res.File != "" {
			p.recordPreprocess(g, res.File, res.Tiles, started, time.Now())
		}
		pp.mu.Lock()
		switch {
		case err != nil:
			if pp.err == nil {
				pp.err = fmt.Errorf("granule %d: %w", g.Index, err)
			}
		case res.File != "":
			pp.files++
			pp.tiles += res.Tiles
		}
		pp.mu.Unlock()
		if done != nil {
			done()
		}
	}()
}

// wait blocks until every submitted task settles and returns
// (tileFiles, tilesProduced, first error).
func (pp *preprocessing) wait() (int, int, error) {
	pp.wg.Wait()
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.files, pp.tiles, pp.err
}

// close waits for every task, then stops the executor; a local
// endpoint drains its queue first.
func (pp *preprocessing) close() {
	pp.wg.Wait()
	pp.stopExecutor()
}

// Summary renders a one-paragraph report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "granules=%d files=%d bytes=%d tileFiles=%d tiles=%d labeled=%d shipped=%d elapsed=%s",
		r.GranulesRequested, r.FilesDownloaded, r.BytesDownloaded,
		r.TileFiles, r.TilesProduced, r.TilesLabeled, r.FilesShipped, r.Elapsed.Round(time.Millisecond))
	if r.FlowsFailed > 0 {
		fmt.Fprintf(&b, " flowsFailed=%d", r.FlowsFailed)
	}
	return b.String()
}
