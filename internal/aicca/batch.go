package aicca

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eoml/eoml/internal/metrics"
	"github.com/eoml/eoml/internal/tile"
	"github.com/eoml/eoml/internal/trace"
)

// BatchConfig tunes the cross-file inference batcher.
type BatchConfig struct {
	// MaxTiles flushes the pending batch once this many tiles are
	// queued. Matching the encoder's internal batch width (256) means
	// one coalesced flush is one full encode batch.
	MaxTiles int
	// MaxDelay flushes a partial batch this long after its first tile
	// arrived. It is an upper bound: a batch that no further caller can
	// join flushes at once.
	MaxDelay time.Duration
	// Timeline, when set, receives one "inference.batch" span per flush
	// (tile count at flush start, zero at flush end).
	Timeline *trace.Timeline
	// Epoch is the workflow start used for Timeline offsets.
	Epoch time.Time
	// Metrics, when set, receives batch-size and flush-latency
	// histograms per flush. Nil is valid.
	Metrics *metrics.Registry
	// Precision, when non-empty, overrides the labeler's encode
	// precision for batches flushed through this batcher.
	Precision Precision
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxTiles <= 0 {
		c.MaxTiles = 256
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 20 * time.Millisecond
	}
	if c.Epoch.IsZero() {
		c.Epoch = time.Now()
	}
	return c
}

// batchJob is one caller's tile slice waiting for a coalesced encode.
type batchJob struct {
	tiles []*tile.Tile
	res   chan error
}

// BatchLabeler coalesces tiles from concurrent LabelFile/LabelTiles
// callers into shared encode batches. The paper's stage-4 flow fires one
// inference action per tile file; files are small (tens of tiles), so
// per-file encodes waste most of each batch. The batcher instead fills a
// fixed-size batch across files and flushes on size or deadline — one
// Encode (and one pass through the model arena) per flush.
//
// A batch also flushes as soon as no other caller can join it: the
// batcher counts callers inside LabelFile/LabelTiles whose tiles are not
// yet labeled, and flushes once every one of them has its job pending.
// A lone caller never waits for the deadline; callers that queue while a
// flush runs share the next one.
//
// Submission order is preserved per caller; labels are written into the
// submitted tiles in place, exactly as Labeler.LabelTiles does.
type BatchLabeler struct {
	// encode labels one coalesced batch in place.
	encode func([]*tile.Tile) error
	cfg    BatchConfig

	jobs chan batchJob
	done chan struct{}
	// callers counts callers inside LabelFile/LabelTiles whose tiles are
	// not yet labeled; the flusher uncounts the jobs it answers.
	callers atomic.Int64
	// left wakes the flusher when a caller leaves without a job, which
	// may leave every remaining caller pending.
	left chan struct{}

	batchTiles   *metrics.Histogram
	flushSeconds *metrics.Histogram

	mu     sync.Mutex
	closed bool
}

// NewBatchLabeler starts the flusher goroutine. Callers must Close the
// batcher when done (Close is idempotent).
func NewBatchLabeler(l *Labeler, cfg BatchConfig) *BatchLabeler {
	if cfg.Precision != "" && l != nil && l.Precision != cfg.Precision {
		// Shallow copy so the override stays local to this batcher: the
		// model and codebook are shared, the precision knob is not.
		cp := *l
		cp.Precision = cfg.Precision
		l = &cp
	}
	prec := PrecisionFloat32
	if l != nil && l.Precision != "" {
		prec = l.Precision
	}
	return newBatchLabeler(cfg, prec, func(tiles []*tile.Tile) error {
		_, err := l.LabelTiles(tiles)
		return err
	})
}

// newBatchLabeler starts a batcher whose flushes call encode; prec only
// labels the metric series.
func newBatchLabeler(cfg BatchConfig, prec Precision, encode func([]*tile.Tile) error) *BatchLabeler {
	b := &BatchLabeler{
		encode: encode,
		cfg:    cfg.withDefaults(),
		jobs:   make(chan batchJob, 64),
		done:   make(chan struct{}),
		left:   make(chan struct{}, 1),
	}
	b.batchTiles = b.cfg.Metrics.Histogram("eoml_labeler_batch_tiles",
		"Tiles per coalesced encode batch at flush time.", metrics.SizeBuckets(),
		metrics.L("precision", string(prec)))
	b.flushSeconds = b.cfg.Metrics.Histogram("eoml_labeler_flush_seconds",
		"Wall-clock seconds per coalesced encode flush.", metrics.DurationBuckets(),
		metrics.L("precision", string(prec)))
	go b.run()
	return b
}

// LabelTiles queues tiles for the next coalesced batch and blocks until
// they are labeled (in place) or the batch fails.
func (b *BatchLabeler) LabelTiles(tiles []*tile.Tile) error {
	if len(tiles) == 0 {
		return nil
	}
	b.callers.Add(1)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.leave()
		return fmt.Errorf("aicca: batch labeler is closed")
	}
	j := batchJob{tiles: tiles, res: make(chan error, 1)}
	//eomlvet:ignore locksleep the send must happen under b.mu so Close cannot close b.jobs between the closed check and the send; run drains the channel without taking the lock, so the wait is bounded
	b.jobs <- j // send under the lock so Close cannot race the channel close
	b.mu.Unlock()
	// The flusher uncounts this caller when it answers.
	return <-j.res
}

// LabelFile reads a tile NetCDF, labels its tiles through the shared
// batch, and rewrites the file with labels appended. File I/O runs on
// the caller (so concurrent workers parse and write in parallel); only
// the encode is funneled through the batcher. Returns the number of
// tiles labeled. Drop-in replacement for Labeler.LabelFile.
func (b *BatchLabeler) LabelFile(path string) (int, error) {
	// Counted during the read too, so a batch pending meanwhile waits
	// for this file's tiles instead of flushing without them. The hold
	// is handed over to LabelTiles' own count; a flush that lands
	// between the two just goes without this file.
	b.callers.Add(1)
	tiles, err := tile.ReadNetCDF(path)
	if err != nil || len(tiles) == 0 {
		b.leave()
		return 0, err
	}
	b.callers.Add(-1)
	if err := b.LabelTiles(tiles); err != nil {
		return 0, err
	}
	labels := make([]int16, len(tiles))
	for i, t := range tiles {
		labels[i] = t.Label
	}
	if err := tile.AppendLabels(path, labels); err != nil {
		return 0, err
	}
	return len(tiles), nil
}

// leave uncounts a caller that will submit no job and wakes the
// flusher, whose pending jobs may now be all the callers left.
func (b *BatchLabeler) leave() {
	b.callers.Add(-1)
	select {
	case b.left <- struct{}{}:
	default:
	}
}

// Close flushes whatever is pending and stops the flusher. Idempotent;
// LabelTiles calls after Close fail cleanly.
func (b *BatchLabeler) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	close(b.jobs)
	b.mu.Unlock()
	<-b.done
}

// run is the flusher loop: accumulate jobs until the batch is full,
// every caller inside the batcher has its job pending, or the oldest
// pending job has waited MaxDelay, then label everything pending in one
// Encode call.
//
//eomlvet:ignore ctxflow lifecycle goroutine terminated by close(b.jobs) in Close; the flagged sends are to per-job result channels with capacity 1 and exactly one receiver, so they never block
func (b *BatchLabeler) run() {
	defer close(b.done)
	var pending []batchJob
	count := 0
	var deadline <-chan time.Time

	flush := func() {
		if count == 0 {
			return
		}
		all := make([]*tile.Tile, 0, count)
		for _, j := range pending {
			all = append(all, j.tiles...)
		}
		if tl := b.cfg.Timeline; tl != nil {
			tl.Record("inference.batch", time.Since(b.cfg.Epoch).Seconds(), len(all))
		}
		started := time.Now()
		err := b.encode(all)
		b.batchTiles.Observe(float64(len(all)))
		b.flushSeconds.Observe(time.Since(started).Seconds())
		if tl := b.cfg.Timeline; tl != nil {
			tl.Record("inference.batch", time.Since(b.cfg.Epoch).Seconds(), 0)
		}
		// Uncount before answering, so a caller that comes straight back
		// is not mistaken for one still waiting on this flush.
		b.callers.Add(-int64(len(pending)))
		for _, j := range pending {
			j.res <- err
		}
		pending = pending[:0]
		count = 0
		deadline = nil
	}
	// nobodyElse reports whether every caller inside the batcher has its
	// job pending, so no one else can join the batch.
	nobodyElse := func() bool {
		return len(pending) > 0 && int64(len(pending)) >= b.callers.Load()
	}

	for {
		select {
		case j, ok := <-b.jobs:
			if !ok {
				flush()
				return
			}
			pending = append(pending, j)
			count += len(j.tiles)
			if count >= b.cfg.MaxTiles || nobodyElse() {
				flush()
			} else if deadline == nil {
				deadline = time.After(b.cfg.MaxDelay)
			}
		case <-b.left:
			if nobodyElse() {
				flush()
			}
		case <-deadline:
			flush()
		}
	}
}
