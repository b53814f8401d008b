package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/hdf"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/tile"
	"github.com/eoml/eoml/internal/trace"
	"github.com/eoml/eoml/internal/transfer"
	"github.com/eoml/eoml/internal/watch"
)

// replayGranules caps the replay: it is single-threaded and waits out
// real poll intervals and, on fleet-wan, shaped downloads, so a few
// granules give the per-layer service times at a bounded cost.
const replayGranules = 8

// replayRun names the replay's spans.
const replayRun = "replay"

// replayStats are the replay's counts beside its spans.
type replayStats struct {
	granules, files, tiles int
	scans                  int
	handoffs               []float64 // ms, tile file written to crawler event
	flushSeconds           float64
	wall                   float64 // s
}

// replay drives the first granules of the workload one at a time
// through the layer functions the pipeline composes, with the run's
// settings: laads.Client.Download → hdf.ReadFile → tile.Extract →
// tile.WriteNetCDF → watch.Crawler.ScanOnce at the poll interval →
// aicca.BatchLabeler.LabelFile → move → transfer.Service. Every call is
// a span under the granule's root span.
func (fx *fixture) replay(ctx context.Context, rec *recorder) (replayStats, error) {
	var st replayStats
	dirs, err := newRunDirs(filepath.Join(fx.root, "replay"))
	if err != nil {
		return st, err
	}
	cfg := fx.config(dirs)
	client := laads.NewClient(cfg.ArchiveURL, cfg.ArchiveToken)
	crawler, err := watch.NewCrawler(watch.Config{Dir: dirs.tiles, Pattern: "*.nc", Interval: cfg.PollInterval})
	if err != nil {
		return st, err
	}
	timeline := trace.NewTimeline()
	epoch := time.Now()
	batcher := aicca.NewBatchLabeler(fx.labeler, aicca.BatchConfig{
		MaxTiles:  cfg.BatchTiles,
		MaxDelay:  cfg.BatchDelay,
		Timeline:  timeline,
		Epoch:     epoch,
		Precision: aicca.Precision(cfg.Precision),
	})
	defer batcher.Close()
	ship := transfer.NewService(transfer.Options{VerifyChecksum: true})
	if _, err := ship.RegisterEndpoint("outbox", "outbox", dirs.outbox); err != nil {
		return st, err
	}
	if _, err := ship.RegisterEndpoint("dest", "dest", dirs.dest); err != nil {
		return st, err
	}
	// The crawler scans on a fixed period, as the pipeline's does; a
	// file's hand-off waits for the ticks after it is written.
	ticker := time.NewTicker(cfg.PollInterval)
	defer ticker.Stop()

	begin := time.Now()
	for _, idx := range fx.granules[:min(replayGranules, len(fx.granules))] {
		g := modis.GranuleID{Satellite: cfg.Satellite, Year: cfg.Year, DOY: cfg.DOY, Index: idx}
		tr := fmt.Sprintf("g%03d", idx)
		rootStart := time.Now()
		root := rec.add(Span{Trace: tr, Run: replayRun, Layer: "run", Name: "granule", Start: rec.at(rootStart), End: rec.at(rootStart)})
		span := func(layer, name string, fn func() error) error {
			return rec.timed(Span{Parent: root, Trace: tr, Run: replayRun, Layer: layer, Name: name}, fn)
		}

		var files [3]*hdf.File
		for i, prod := range cfg.Products() {
			name := modis.FileName(prod, g)
			if err := span("laads", "laads.Client.Download", func() error {
				_, err := client.Download(ctx, prod, g.Year, g.DOY, name, dirs.data)
				return err
			}); err != nil {
				return st, err
			}
			if err := span("hdf", "hdf.ReadFile", func() error {
				files[i], err = hdf.ReadFile(filepath.Join(dirs.data, name))
				return err
			}); err != nil {
				return st, err
			}
		}
		var res *tile.Result
		if err := span("tile", "tile.Extract", func() error {
			res, err = tile.Extract(files[0], files[1], files[2], tile.Options{TileSize: cfg.TilePixels, MinCloudFrac: cfg.MinCloudFrac})
			return err
		}); err != nil {
			return st, err
		}
		st.granules++
		if len(res.Tiles) == 0 {
			rec.set(root, Span{Trace: tr, Run: replayRun, Layer: "run", Name: "granule", Start: rec.at(rootStart), End: rec.at(time.Now())})
			continue
		}
		name := fmt.Sprintf("replay.%03d.nc", idx)
		path := filepath.Join(dirs.tiles, name)
		if err := span("tile", "tile.WriteNetCDF", func() error { return tile.WriteNetCDF(path, res.Tiles) }); err != nil {
			return st, err
		}
		written := time.Now()
		if err := handoff(ctx, rec, root, tr, crawler, ticker, path, &st); err != nil {
			return st, err
		}
		st.handoffs = append(st.handoffs, float64(time.Since(written))/float64(time.Millisecond))

		before := len(timeline.Samples("inference.batch"))
		labelStart := time.Now()
		labeled, err := batcher.LabelFile(path)
		if err != nil {
			return st, err
		}
		label := rec.add(Span{Parent: root, Trace: tr, Run: replayRun, Layer: "aicca", Name: "aicca.BatchLabeler.LabelFile", Start: rec.at(labelStart), End: rec.at(time.Now())})
		// The flush runs on the batcher's goroutine; its timeline marks
		// when it started and ended. Before it, LabelFile read the file
		// and waited for the batch deadline.
		for i, fl := range flushes(timeline.Samples("inference.batch")[before:]) {
			lo, hi := epoch.Add(secs(fl.lo)), epoch.Add(secs(fl.hi))
			if i == 0 {
				rec.add(Span{Parent: label, Trace: tr, Run: replayRun, Layer: "aicca", Name: "aicca.batch_wait", Wait: true, Start: rec.at(labelStart), End: rec.at(lo)})
			}
			rec.add(Span{Parent: label, Trace: tr, Run: replayRun, Layer: "aicca", Name: "aicca.flush", Start: rec.at(lo), End: rec.at(hi)})
			st.flushSeconds += fl.hi - fl.lo
		}
		st.tiles += labeled

		dst := filepath.Join(dirs.outbox, name)
		if err := span("inference", "move", func() error { return os.Rename(path, dst) }); err != nil {
			return st, err
		}
		if err := span("transfer", "transfer.Service", func() error {
			id, err := ship.Submit("outbox", "dest", []transfer.Item{{Src: name, Dst: name}})
			if err != nil {
				return err
			}
			s, err := ship.Wait(ctx, id)
			if err == nil && s.State != transfer.Succeeded {
				err = fmt.Errorf("ship %s: %v", name, s.Errors)
			}
			return err
		}); err != nil {
			return st, err
		}
		st.files++
		rec.set(root, Span{Trace: tr, Run: replayRun, Layer: "run", Name: "granule", Start: rec.at(rootStart), End: rec.at(time.Now())})
	}
	st.wall = time.Since(begin).Seconds()
	return st, nil
}

// handoff waits for the crawler to report path, scanning once per poll
// tick as the pipeline's monitor does. The scans are watch service
// time; the time between them is watch wait.
func handoff(ctx context.Context, rec *recorder, root int, tr string, c *watch.Crawler, ticker *time.Ticker, path string, st *replayStats) error {
	// A tick that fell due while the file was being made stands for a
	// scan that ran before the file existed; drop it.
	select {
	case <-ticker.C:
	default:
	}
	for {
		waitStart := time.Now()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
		rec.add(Span{Parent: root, Trace: tr, Run: replayRun, Layer: "watch", Name: "watch.poll_wait", Wait: true, Start: rec.at(waitStart), End: rec.at(time.Now())})
		var events []watch.Event
		if err := rec.timed(Span{Parent: root, Trace: tr, Run: replayRun, Layer: "watch", Name: "watch.Crawler.ScanOnce"}, func() error {
			var err error
			events, err = c.ScanOnce()
			return err
		}); err != nil {
			return err
		}
		st.scans++
		for _, ev := range events {
			if ev.Path == path {
				return nil
			}
		}
	}
}

// flushes pairs a batcher timeline's samples into flush intervals: a
// sample with tiles opens a flush, the next empty one closes it.
func flushes(samples []trace.Sample) []interval {
	var out []interval
	open := -1.0
	for _, s := range samples {
		switch {
		case s.Count > 0:
			open = s.T
		case open >= 0:
			out = append(out, interval{open, s.T})
			open = -1
		}
	}
	return out
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
