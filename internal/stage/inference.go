package stage

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/flows"
	"github.com/eoml/eoml/internal/metrics"
)

// flowDefinition is the Globus-Flows-style definition of stages 3–4:
// label the submitted file, then move it to the shipment outbox.
const flowDefinition = `{
  "Comment": "EO-ML inference flow: label tiles, stage for shipment",
  "StartAt": "Infer",
  "States": {
    "Infer": {
      "Type": "Action",
      "ActionProvider": "inference",
      "Parameters": {"file": "$.file"},
      "ResultPath": "$.labeled",
      "Next": "Move"
    },
    "Move": {
      "Type": "Action",
      "ActionProvider": "move",
      "Parameters": {"file": "$.file", "outbox": "$.outbox", "labeled": "$.labeled"},
      "ResultPath": "$.moved",
      "Next": "Done"
    },
    "Done": {"Type": "Succeed"}
  }
}`

// InferenceConfig tunes an InferenceService.
type InferenceConfig struct {
	// Labeler performs the actual tile classification.
	Labeler *aicca.Labeler
	// BatchTiles / BatchDelay tune the cross-file encode batcher.
	BatchTiles int
	BatchDelay time.Duration
	// Precision, when non-empty, overrides the labeler's encode
	// arithmetic for batches flushed through this service.
	Precision aicca.Precision
	// Workers bounds the inference worker pool; default 1.
	Workers int
	// OutboxDir receives labeled files staged for shipment.
	OutboxDir string
	// StallTimeout caps the wait for inference to catch up with the
	// expected file count; default 5 minutes.
	StallTimeout time.Duration
	// OnMoved, when set, observes every labeled file move (provenance).
	OnMoved func(src, dst string, labeled int, started, ended time.Time)
	// LabelFile, when set, replaces the in-process batcher for the
	// flow's inference action — the hook fleet distribution uses to
	// lease labeling to a worker process. It must label the file in
	// place and return the tile count; the move step stays local.
	LabelFile func(ctx context.Context, path string) (int, error)
}

func (c InferenceConfig) withDefaults() InferenceConfig {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 5 * time.Minute
	}
	return c
}

// InferenceService is the monitor & trigger + inference machinery of
// the workflow as one reusable stage: upstream preprocessing pushes each
// tile file it wrote with Submit, and a bounded worker pool runs the
// label-and-move flow on it through a cross-file encode batcher. Both
// the batch and the streaming driver compose this same service. Only
// submitted files are labeled; anything else in the tile directory is
// left alone.
//
// Lifecycle: Setup builds the batcher and flow engine and arms the
// worker pool (so labeling overlaps preprocessing); Submit hands over
// one tile file; ExpectFiles tells the service how many tile files
// upstream submitted; Run blocks until that many flows completed
// (successfully or not) and returns the join of all flow errors; Drain
// retires the pool and batcher gracefully; Close is the idempotent
// forced variant for error paths.
type InferenceService struct {
	cfg InferenceConfig

	batcher  *aicca.BatchLabeler
	engine   *flows.Engine
	def      *flows.Definition
	files    chan string
	progress chan struct{}
	// stop closes at shutdown: the pool exits and Submit stops waiting.
	stop     chan struct{}
	poolWG   sync.WaitGroup
	armed    bool
	stopOnce sync.Once

	health       *metrics.Health
	monitorIn    *metrics.Counter
	monitorOut   *metrics.Counter
	flowIn       *metrics.Counter
	flowOut      *metrics.Counter
	flowFailures *metrics.Counter
	tilesCtr     *metrics.Counter

	mu           sync.Mutex
	expected     int
	expectSet    bool
	completed    int
	filesLabeled int
	tilesLabeled int
	flowErrs     []error
}

// NewInferenceService builds an unarmed service; Setup arms it.
func NewInferenceService(cfg InferenceConfig) *InferenceService {
	return &InferenceService{cfg: cfg.withDefaults()}
}

// Name implements Stage.
func (s *InferenceService) Name() string { return "inference" }

// Setup builds the machinery and arms the worker pool.
func (s *InferenceService) Setup(ctx context.Context, rc *RunContext) error {
	// Register the monitor & trigger and inference series eagerly, and
	// arm the inference stall clock with the same budget Run's abort
	// timer uses, so /healthz flips stalled around the time Run gives
	// up. The monitor stage is the Submit hand-off into this service —
	// it has no orchestrator slot, so its series are owned here.
	s.health = rc.Health
	s.monitorIn = rc.EventCounter("monitor", EventIn)
	s.monitorOut = rc.EventCounter("monitor", EventOut)
	s.flowIn = rc.EventCounter(s.Name(), EventIn)
	s.flowOut = rc.EventCounter(s.Name(), EventOut)
	s.flowFailures = rc.Metrics.Counter("eoml_inference_flow_failures_total",
		"Label-and-move flows that returned an error.")
	s.tilesCtr = rc.Metrics.Counter("eoml_inference_tiles_labeled_total",
		"Tiles labeled across all submitted files.")
	rc.Metrics.GaugeFunc("eoml_inference_files_expected",
		"Tile files upstream says to expect (0 until the expectation is set).",
		func() float64 { return float64(s.Expected()) })
	rc.Metrics.CounterFunc("eoml_inference_flows_completed_total",
		"Label-and-move flows finished, successfully or not.",
		func() float64 { return float64(s.Completed()) })
	rc.Health.Watch("monitor", 0)
	rc.Health.Watch(s.Name(), s.cfg.StallTimeout)
	if s.cfg.Labeler != nil {
		s.cfg.Labeler.Model.Arena().Instrument(rc.Metrics, "ricc")
	}

	s.batcher = aicca.NewBatchLabeler(s.cfg.Labeler, aicca.BatchConfig{
		MaxTiles:  s.cfg.BatchTiles,
		MaxDelay:  s.cfg.BatchDelay,
		Timeline:  rc.Timeline,
		Epoch:     rc.Epoch,
		Metrics:   rc.Metrics,
		Precision: s.cfg.Precision,
	})
	s.engine = flows.NewEngine(flows.EngineConfig{})
	if err := s.engine.RegisterProvider("inference", s.inferenceProvider()); err != nil {
		return err
	}
	if err := s.engine.RegisterProvider("move", s.moveProvider()); err != nil {
		return err
	}
	def, err := flows.ParseDefinition([]byte(flowDefinition))
	if err != nil {
		return err
	}
	s.def = def

	s.files = make(chan string)
	s.progress = make(chan struct{}, 1)
	s.stop = make(chan struct{})
	for w := 0; w < s.cfg.Workers; w++ {
		s.poolWG.Add(1)
		go s.worker(ctx, rc)
	}
	s.armed = true
	return nil
}

// Submit hands one tile file to the label-and-move pool: the monitor &
// trigger step, pushed by the preprocess task that wrote the file. Call
// it between Setup and Drain. It waits until a pool worker takes the
// file, and returns an error instead once ctx is done or the service
// has shut down; a nil return means the file's flow has started.
func (s *InferenceService) Submit(ctx context.Context, path string) error {
	s.monitorIn.Inc()
	s.health.Beat("monitor")
	select {
	case s.files <- path:
		s.monitorOut.Inc()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.stop:
		return fmt.Errorf("stage: inference service shut down before %s was submitted", filepath.Base(path))
	}
}

// worker labels and moves submitted files until shutdown or
// cancellation.
func (s *InferenceService) worker(ctx context.Context, rc *RunContext) {
	defer s.poolWG.Done()
	for {
		var path string
		select {
		case path = <-s.files:
		case <-s.stop:
			return
		case <-ctx.Done():
			return
		}
		s.flow(ctx, rc, path)
	}
}

// flow runs the label-and-move flow on one file and records its outcome.
func (s *InferenceService) flow(ctx context.Context, rc *RunContext, path string) {
	s.flowIn.Inc()
	run, err := s.engine.Start(ctx, s.def, map[string]any{
		"file":   path,
		"outbox": s.cfg.OutboxDir,
	})
	var out map[string]any
	if err == nil {
		out, err = run.Wait(ctx)
	}
	s.mu.Lock()
	s.completed++
	if err != nil {
		s.flowErrs = append(s.flowErrs, fmt.Errorf("flow %s: %w", filepath.Base(path), err))
		s.flowFailures.Inc()
	} else {
		s.filesLabeled++
		if n, ok := out["labeled"].(int); ok {
			s.tilesLabeled += n
			s.tilesCtr.Add(int64(n))
		}
		rc.Timeline.Record("inference", rc.Since(), s.filesLabeled)
		s.flowOut.Inc()
	}
	s.mu.Unlock()
	// Every completed flow — failed or not — is liveness: the stall
	// clock tracks progress, not success.
	s.health.Beat(s.Name())
	s.bump()
}

// bump nudges the progress channel so Run re-checks its condition.
func (s *InferenceService) bump() {
	select {
	case s.progress <- struct{}{}:
	default:
	}
}

// ExpectFiles tells the service how many tile files upstream submitted;
// Run returns once that many flows have completed. Safe to call while
// Run is already waiting.
func (s *InferenceService) ExpectFiles(n int) {
	s.mu.Lock()
	s.expected = n
	s.expectSet = true
	s.mu.Unlock()
	s.bump()
}

// Run blocks until every expected file's flow completed, then returns
// the join of all flow errors (nil when every flow succeeded). Failed
// flows still count toward completion, so a bad file cannot stall the
// run — its error surfaces in the join instead.
func (s *InferenceService) Run(ctx context.Context, rc *RunContext) error {
	stall := time.NewTimer(s.cfg.StallTimeout)
	defer stall.Stop()
	for {
		s.mu.Lock()
		done := s.expectSet && s.completed >= s.expected
		completed, expected := s.completed, s.expected
		s.mu.Unlock()
		if done {
			break
		}
		select {
		case <-s.progress:
		case <-ctx.Done():
			return ctx.Err()
		case <-stall.C:
			return fmt.Errorf("inference stalled: %d/%d files processed", completed, expected)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.flowErrs...)
}

// Drain gracefully retires the worker pool and batcher.
func (s *InferenceService) Drain(ctx context.Context, rc *RunContext) error {
	s.shutdown()
	return nil
}

// Close tears the service down on any exit path; idempotent.
func (s *InferenceService) Close() error {
	if s.armed {
		s.shutdown()
	} else if s.batcher != nil {
		s.batcher.Close()
	}
	return nil
}

// shutdown stops the pool and closes the batcher, exactly once. The
// pool must have exited before the batcher (workers mid-flow still need
// it) is flushed and closed.
func (s *InferenceService) shutdown() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.poolWG.Wait()
		s.batcher.Close()
	})
}

// FilesLabeled reports how many submitted files were labeled and moved.
func (s *InferenceService) FilesLabeled() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.filesLabeled
}

// TilesLabeled reports the total tiles labeled across all files.
func (s *InferenceService) TilesLabeled() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tilesLabeled
}

// FlowsFailed reports how many label-and-move flows failed.
func (s *InferenceService) FlowsFailed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.flowErrs)
}

// Completed reports how many flows finished, successfully or not.
func (s *InferenceService) Completed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.completed
}

// Expected reports the expected file count (zero until ExpectFiles).
func (s *InferenceService) Expected() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.expected
}

func (s *InferenceService) inferenceProvider() flows.ActionProvider {
	return func(ctx context.Context, params map[string]any) (any, error) {
		path, _ := params["file"].(string)
		if path == "" {
			return nil, fmt.Errorf("stage: inference action needs a file")
		}
		if s.cfg.LabelFile != nil {
			return s.cfg.LabelFile(ctx, path)
		}
		return s.batcher.LabelFile(path)
	}
}

func (s *InferenceService) moveProvider() flows.ActionProvider {
	return func(ctx context.Context, params map[string]any) (any, error) {
		started := time.Now()
		src, _ := params["file"].(string)
		outbox, _ := params["outbox"].(string)
		if src == "" || outbox == "" {
			return nil, fmt.Errorf("stage: move action needs file and outbox")
		}
		labeled, _ := params["labeled"].(int)
		dst := filepath.Join(outbox, filepath.Base(src))
		if err := os.Rename(src, dst); err != nil {
			// Cross-device rename fallback.
			if cerr := copyPreserving(src, dst); cerr != nil {
				return nil, cerr
			}
		}
		if s.cfg.OnMoved != nil {
			s.cfg.OnMoved(src, dst, labeled, started, time.Now())
		}
		return dst, nil
	}
}

// copyPreserving moves src to dst across filesystems: it copies into a
// temp file next to dst, carries over the source file mode, fsyncs, and
// renames into place before removing the source — so a crash mid-move
// can leave a stray temp file but never a truncated dst or a lost file.
func copyPreserving(src, dst string) error {
	info, err := os.Stat(src)
	if err != nil {
		return err
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".move-*")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	defer os.Remove(tmpPath) // no-op once renamed into place
	if _, err := io.Copy(tmp, in); err != nil {
		_ = tmp.Close() // the copy error is the one worth reporting
		return err
	}
	if err := tmp.Chmod(info.Mode().Perm()); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, dst); err != nil {
		return err
	}
	return os.Remove(src)
}
