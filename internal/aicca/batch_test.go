package aicca

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/tile"
	"github.com/eoml/eoml/internal/trace"
)

func trainBatchLabeler(t *testing.T) *Labeler {
	t.Helper()
	l, _, err := Train(makeTiles(48, 5), trainCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestBatchLabelerMatchesUnbatched: labels assigned through the batcher
// must equal the ones the plain labeler assigns.
func TestBatchLabelerMatchesUnbatched(t *testing.T) {
	l := trainBatchLabeler(t)
	want := makeTiles(30, 7)
	if _, err := l.LabelTiles(want); err != nil {
		t.Fatal(err)
	}
	got := makeTiles(30, 7)
	b := NewBatchLabeler(l, BatchConfig{MaxTiles: 16, MaxDelay: 5 * time.Millisecond})
	defer b.Close()
	if err := b.LabelTiles(got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Label != want[i].Label {
			t.Fatalf("tile %d: batched label %d, unbatched %d", i, got[i].Label, want[i].Label)
		}
	}
}

// TestBatchLabelerCoalesces submits many small files from concurrent
// workers and checks (a) every tile is labeled correctly and (b) the
// timeline shows fewer encode flushes than files — the whole point of
// batching.
func TestBatchLabelerCoalesces(t *testing.T) {
	l := trainBatchLabeler(t)
	tl := trace.NewTimeline()
	b := NewBatchLabeler(l, BatchConfig{
		MaxTiles: 64,
		MaxDelay: 50 * time.Millisecond,
		Timeline: tl,
		Epoch:    time.Now(),
	})
	defer b.Close()

	const files, perFile = 12, 8
	dir := t.TempDir()
	paths := make([]string, files)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("tiles%02d.nc", i))
		if err := tile.WriteNetCDF(paths[i], makeTiles(perFile, int64(20+i))); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, files)
	counts := make(chan int, files)
	for _, p := range paths {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			n, err := b.LabelFile(p)
			if err != nil {
				errs <- err
				return
			}
			counts <- n
		}(p)
	}
	wg.Wait()
	close(errs)
	close(counts)
	for err := range errs {
		t.Fatal(err)
	}
	total := 0
	for n := range counts {
		total += n
	}
	if total != files*perFile {
		t.Fatalf("labeled %d tiles, want %d", total, files*perFile)
	}
	for _, p := range paths {
		back, err := tile.ReadNetCDF(p)
		if err != nil {
			t.Fatal(err)
		}
		for i, tt := range back {
			if tt.Label < 0 {
				t.Fatalf("%s tile %d unlabeled", p, i)
			}
		}
	}
	// Each flush records a start sample (count>0) and an end sample.
	flushes := 0
	for _, s := range tl.Samples("inference.batch") {
		if s.Count > 0 {
			flushes++
		}
	}
	if flushes == 0 {
		t.Fatal("no batch spans recorded")
	}
	if flushes >= files {
		t.Fatalf("%d flushes for %d files: nothing was coalesced", flushes, files)
	}
}

// TestBatchLabelerDeadlineFlush: a lone partial batch must flush after
// MaxDelay rather than waiting for MaxTiles.
func TestBatchLabelerDeadlineFlush(t *testing.T) {
	l := trainBatchLabeler(t)
	b := NewBatchLabeler(l, BatchConfig{MaxTiles: 1 << 20, MaxDelay: 10 * time.Millisecond})
	defer b.Close()
	tiles := makeTiles(4, 31)
	start := time.Now()
	if err := b.LabelTiles(tiles); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("deadline flush took %v", e)
	}
	for i, tt := range tiles {
		if tt.Label < 0 {
			t.Fatalf("tile %d unlabeled", i)
		}
	}
}

// TestBatchLabelerClose: Close flushes pending work, is idempotent, and
// later submissions fail cleanly instead of panicking.
func TestBatchLabelerClose(t *testing.T) {
	l := trainBatchLabeler(t)
	b := NewBatchLabeler(l, BatchConfig{MaxTiles: 1 << 20, MaxDelay: time.Hour})
	tiles := makeTiles(4, 32)
	done := make(chan error, 1)
	go func() { done <- b.LabelTiles(tiles) }()
	time.Sleep(20 * time.Millisecond) // let the job reach the flusher
	b.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i, tt := range tiles {
		if tt.Label < 0 {
			t.Fatalf("tile %d not labeled by the closing flush", i)
		}
	}
	b.Close() // idempotent
	if err := b.LabelTiles(makeTiles(2, 33)); err == nil {
		t.Fatal("LabelTiles after Close did not fail")
	}
}

// TestBatchLabelerLoneCallerSkipsDeadline: a caller with no one else
// inside the batcher flushes at once, however long MaxDelay is.
func TestBatchLabelerLoneCallerSkipsDeadline(t *testing.T) {
	l := trainBatchLabeler(t)
	b := NewBatchLabeler(l, BatchConfig{MaxTiles: 1 << 20, MaxDelay: time.Hour})
	defer b.Close()
	for round := 0; round < 3; round++ {
		done := make(chan error, 1)
		go func() { done <- b.LabelTiles(makeTiles(4, int64(40+round))) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: lone caller waited for the one-hour deadline", round)
		}
	}
}

// stubFlushes starts a batcher whose encode records each flush's tile
// count and, for the first flush only, blocks until release closes.
func stubFlushes(release <-chan struct{}) (*BatchLabeler, func() []int, <-chan struct{}) {
	var mu sync.Mutex
	var sizes []int
	started := make(chan struct{})
	b := newBatchLabeler(BatchConfig{MaxTiles: 1 << 20, MaxDelay: time.Hour}, PrecisionFloat32,
		func(tiles []*tile.Tile) error {
			mu.Lock()
			sizes = append(sizes, len(tiles))
			first := len(sizes) == 1
			mu.Unlock()
			if first {
				close(started)
				<-release
			}
			return nil
		})
	return b, func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), sizes...)
	}, started
}

// TestBatchLabelerQueuedCallersShareFlush: callers that queue while a
// flush runs are labeled together by the next flush, not one by one.
func TestBatchLabelerQueuedCallersShareFlush(t *testing.T) {
	release := make(chan struct{})
	b, sizes, started := stubFlushes(release)
	defer b.Close()

	errs := make(chan error, 3)
	go func() { errs <- b.LabelTiles(makeTiles(2, 50)) }()
	<-started
	go func() { errs <- b.LabelTiles(makeTiles(3, 51)) }()
	go func() { errs <- b.LabelTiles(makeTiles(4, 52)) }()
	// Both late callers are inside the batcher (the first is still
	// counted until its flush answers) before the first flush ends.
	for b.callers.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprint(sizes()); got != "[2 7]" {
		t.Fatalf("flush sizes %s, want [2 7]: the queued callers did not share a flush", got)
	}
}

// TestBatchLabelerCloseFlushesPending: a job that cannot flush yet,
// because another caller may still join, is flushed by Close.
func TestBatchLabelerCloseFlushesPending(t *testing.T) {
	release := make(chan struct{})
	b, sizes, started := stubFlushes(release)

	errs := make(chan error, 2)
	go func() { errs <- b.LabelTiles(makeTiles(2, 53)) }()
	<-started
	go func() { errs <- b.LabelTiles(makeTiles(5, 54)) }()
	for len(b.jobs) == 0 {
		time.Sleep(time.Millisecond)
	}
	// A caller that never submits keeps the queued job from flushing on
	// its own once the first flush ends.
	b.callers.Add(1)
	close(release)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	b.Close()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(sizes()); got != "[2 5]" {
		t.Fatalf("flush sizes %s, want [2 5]", got)
	}
}
