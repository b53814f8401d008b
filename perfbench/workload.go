package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/eoml/eoml/internal/core"
	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/metrics"
	"github.com/eoml/eoml/internal/provenance"
)

// workload is one set of inputs the benchmark runs. Only the fields
// that describe inputs differ between workloads; every stage setting is
// core.DefaultConfig(), which is what a user gets.
type workload struct {
	name string
	// scale is the archive's resolution divisor; tiles are always the
	// full-resolution 128×128-pixel AICCA tile on the scaled swath.
	scale int
	// granules is how many productive day-side granules one run asks for.
	granules int
	// stream feeds RunStream from the open-loop generator at rate
	// granules per second instead of calling Run.
	stream bool
	rate   float64
	// fleet runs distribution: fleet over two in-process workers.
	fleet bool
	// perConn shapes each archive response to this many bytes/s (0: unshaped).
	perConn int64
}

var workloads = []workload{
	{name: "day-batch", scale: 4, granules: 36},
	{name: "downlink-stream", scale: 8, granules: 120, stream: true, rate: 20},
	{name: "fleet-wan", scale: 8, granules: 32, fleet: true, perConn: 4 << 20},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fleetWorkers and the worker settings below are the
// BenchmarkFleetScaling worker settings: one compute slot and a
// four-granule prefetch window each, download cache off because every
// run is a new campaign.
const (
	fleetWorkers  = 2
	fleetSlots    = 1
	fleetPrefetch = 4
)

// system is one brought-up eoml deployment: a run ready to start and,
// for fleet workloads, its coordinator and workers.
type system struct {
	run *core.Run

	coord      *fleet.Coordinator
	coordReg   *metrics.Registry
	control    *httptest.Server
	workers    []*fleet.Worker
	workerRegs []*metrics.Registry
	transport  *timedTransport // nil unless traced
}

// runDirs are the directories of one run.
type runDirs struct{ data, tiles, outbox, dest string }

func newRunDirs(root string) (runDirs, error) {
	if err := os.RemoveAll(root); err != nil {
		return runDirs{}, err
	}
	d := runDirs{
		data:   filepath.Join(root, "data"),
		tiles:  filepath.Join(root, "tiles"),
		outbox: filepath.Join(root, "outbox"),
		dest:   filepath.Join(root, "dest"),
	}
	for _, dir := range []string{d.data, d.tiles, d.outbox, d.dest} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return runDirs{}, err
		}
	}
	return d, nil
}

// config is the run configuration: core.DefaultConfig() plus the
// fields that describe this workload's inputs.
func (fx *fixture) config(d runDirs) core.Config {
	cfg := core.DefaultConfig()
	cfg.Year = benchYear
	cfg.DOY = fx.doy
	if !fx.w.stream {
		cfg.Granules = append([]int(nil), fx.granules...)
	}
	cfg.ArchiveURL = fx.archive.URL
	cfg.ArchiveToken = archiveToken
	cfg.DataDir, cfg.TileDir, cfg.OutboxDir, cfg.DestDir = d.data, d.tiles, d.outbox, d.dest
	cfg.TilePixels = fx.w.tilePixels()
	cfg.ModelPath, cfg.CodebookPath = fx.model, fx.codebook
	if fx.w.fleet {
		cfg.Distribution = core.DistributionFleet
	}
	return cfg
}

// bringUp builds the deployment a run needs: the engine, which loads
// the labeler from the saved artifacts, the run, and for fleet
// workloads a coordinator on loopback HTTP with every worker
// registered. This is what setup_s times.
func (fx *fixture) bringUp(ctx context.Context, cfg core.Config, traced bool) (*system, error) {
	sys := &system{}
	opts := core.EngineOptions{}
	if fx.w.fleet {
		fcfg := fleet.Config{}
		if traced {
			sys.transport = &timedTransport{next: fleet.NewHTTPTransport()}
			fcfg.Transport = sys.transport
		}
		sys.coord = fleet.NewCoordinator(fcfg)
		sys.coordReg = metrics.NewRegistry()
		sys.coord.Instrument(sys.coordReg)
		sys.control = httptest.NewServer(sys.coord.Handler())
		for i := 0; i < fleetWorkers; i++ {
			reg := metrics.NewRegistry()
			w, err := fleet.NewWorker(fleet.WorkerConfig{
				ID:             fmt.Sprintf("perfbench-w%d", i),
				CoordinatorURL: sys.control.URL,
				Slots:          fleetSlots,
				PrefetchWindow: fleetPrefetch,
				Metrics:        reg,
			})
			if err == nil {
				err = w.Start(ctx)
			}
			if err != nil {
				sys.close()
				return nil, err
			}
			sys.workers = append(sys.workers, w)
			sys.workerRegs = append(sys.workerRegs, reg)
		}
		opts.Fleet = sys.coord
	}
	run, err := core.NewEngine(opts).NewRun(cfg, core.RunOptions{})
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.run = run
	return sys, nil
}

// close stops the workers, then the coordinator.
func (s *system) close() {
	for _, w := range s.workers {
		w.Stop()
	}
	if s.control != nil {
		s.control.Close()
	}
	if s.coord != nil {
		s.coord.Close()
	}
}

// repResult is what one run of a workload measured.
type repResult struct {
	setup     float64 // s
	wall      float64 // s, Run/RunStream call to return
	requested int
	tiles     int // labeled
	failed    int
	problems  []string
	cpu       float64   // s, process user+system
	alloc     float64   // bytes allocated
	latencies []float64 // ms, arrival to labeled file in the outbox, per verified granule
	lagMax    float64   // ms, stream generator lateness

	// Inputs of the per-layer figures, kept when traced.
	t0      time.Time
	dues    map[int]time.Time
	verify  map[string]int
	report  *core.Report
	prov    *provenance.Store
	reqs    []archiveReq
	leases  []lease
	samples []gaugeSample
	coord   []metrics.Family
}

// runOnce brings a system up, runs the workload once into fresh
// directories, and checks what it shipped.
func (fx *fixture) runOnce(ctx context.Context, traced bool) (repResult, error) {
	var r repResult
	root := filepath.Join(fx.root, "run")
	dirs, err := newRunDirs(root)
	if err != nil {
		return r, err
	}
	// Removing the run's files as soon as they are checked lets the
	// kernel drop their dirty pages unwritten instead of flushing them
	// while the next run dirties as much again.
	defer os.RemoveAll(root)
	cfg := fx.config(dirs)

	start := time.Now()
	sys, err := fx.bringUp(ctx, cfg, traced)
	if err != nil {
		return r, fmt.Errorf("bring-up: %w", err)
	}
	r.setup = time.Since(start).Seconds()
	defer sys.close()
	runtime.GC() // leave the previous run's garbage out of this one
	r.prov = provenance.NewStore()
	sys.run.SetProvenance(r.prov)

	var log *archiveLog
	var smp *sampler
	if traced {
		log = &archiveLog{}
		fx.probe.log.Store(log)
		smp = startSampler(sys.run.Metrics(), sys.workerRegs)
	}

	cpu0 := cpuSeconds()
	alloc0 := totalAlloc()
	r.t0 = time.Now()
	var runErr error
	if fx.w.stream {
		var lag time.Duration
		r.report, r.dues, lag, runErr = fx.stream(ctx, sys.run, r.t0)
		r.lagMax = float64(lag) / float64(time.Millisecond)
	} else {
		r.report, runErr = sys.run.Run(ctx)
	}
	r.wall = time.Since(r.t0).Seconds()
	r.cpu = cpuSeconds() - cpu0
	r.alloc = totalAlloc() - alloc0

	if traced {
		fx.probe.log.Store(nil)
		r.reqs = log.all()
		r.samples = smp.finish()
		if sys.transport != nil {
			r.leases = sys.transport.all()
		}
		r.coord = sys.coordReg.Snapshot()
	}

	r.requested = len(fx.granules)
	if r.report != nil {
		r.tiles = r.report.TilesLabeled
	}
	check, err := checkShipped(dirs.dest, fx.ref)
	if err != nil {
		return r, err
	}
	r.verify = check.verified
	r.failed = check.failed
	r.problems = check.problems
	if runErr != nil {
		r.problems = append(r.problems, runErr.Error())
	}
	r.latencies = latencies(r)
	return r, nil
}

// latencies is, per verified granule, the time from its arrival to its
// labeled file landing in the outbox (the end of the provenance
// inference activity). A batch run's granules all arrive when Run is
// called.
func latencies(r repResult) []float64 {
	var out []float64
	for _, a := range r.prov.Activities() {
		if a.Name != "inference" || len(a.Outputs) == 0 {
			continue
		}
		idx, ok := r.verify[strings.TrimPrefix(a.Outputs[0], "labeled:")]
		if !ok {
			continue
		}
		due := r.t0
		if d, ok := r.dues[idx]; ok {
			due = d
		}
		out = append(out, float64(a.Ended.Sub(due))/float64(time.Millisecond))
	}
	return out
}

// stream runs RunStream fed by the open-loop generator: one goroutine
// sends each granule at its due time on a channel with room for every
// granule, so a stalled pipeline shows as latency and never slows the
// generator. It returns the report, each granule's due time and the
// generator's largest lateness.
func (fx *fixture) stream(ctx context.Context, run *core.Run, t0 time.Time) (*core.Report, map[int]time.Time, time.Duration, error) {
	arrivals := make(chan int, len(fx.granules)) // sized to every send: the generator never blocks
	dues := make(map[int]time.Time, len(fx.granules))
	period := time.Duration(float64(time.Second) / fx.w.rate)
	for i, idx := range fx.granules {
		dues[idx] = t0.Add(time.Duration(i) * period)
	}
	var lagMax time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(arrivals)
		for _, idx := range fx.granules {
			due := dues[idx]
			if d := time.Until(due); d > 0 {
				timer := time.NewTimer(d)
				select {
				case <-timer.C:
				case <-ctx.Done():
					timer.Stop()
					return
				}
			}
			arrivals <- idx
			if lag := time.Since(due); lag > lagMax {
				lagMax = lag
			}
		}
	}()
	rep, err := run.RunStream(ctx, arrivals)
	wg.Wait()
	return rep, dues, lagMax, err
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// totalAlloc is the Go heap's cumulative allocated bytes.
func totalAlloc() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc)
}
