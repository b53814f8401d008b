package laads

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/hdf"
	"github.com/eoml/eoml/internal/modis"
)

func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.ScaleDown == 0 {
		cfg.ScaleDown = 64
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func TestListing(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{})
	c := NewClient(ts.URL, "")
	listing, err := c.List(context.Background(), modis.MOD021KM, 2022, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(listing) != modis.GranulesPerDay {
		t.Fatalf("listing has %d entries", len(listing))
	}
	if !strings.HasPrefix(listing[0].Name, "MOD021KM.A2022001.0000.") {
		t.Fatalf("first entry %q", listing[0].Name)
	}
	if listing[0].Size != modis.NominalBytes(modis.MOD021KM) {
		t.Fatalf("advertised size %d", listing[0].Size)
	}
}

func TestDownloadProducesValidGranule(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{})
	c := NewClient(ts.URL, "")
	dir := t.TempDir()
	g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: 0}
	name := modis.FileName(modis.MOD03, g)
	res, err := c.Download(context.Background(), modis.MOD03, 2022, 1, name, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes == 0 || res.Attempts != 1 {
		t.Fatalf("result %+v", res)
	}
	f, err := hdf.ReadFile(res.Path)
	if err != nil {
		t.Fatal(err)
	}
	if sn, _ := f.AttrString("ShortName"); sn != "MOD03" {
		t.Fatalf("ShortName = %q", sn)
	}
	if _, err := os.Stat(res.Path + ".part"); !os.IsNotExist(err) {
		t.Fatal("partial file left behind")
	}
}

func TestAuthRequired(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{Token: "secret"})
	bad := NewClient(ts.URL, "wrong")
	if _, err := bad.List(context.Background(), modis.MOD021KM, 2022, 1); err == nil {
		t.Fatal("bad token accepted")
	}
	good := NewClient(ts.URL, "secret")
	if _, err := good.List(context.Background(), modis.MOD021KM, 2022, 1); err != nil {
		t.Fatal(err)
	}
}

func TestNotFoundPaths(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{})
	c := NewClient(ts.URL, "")
	ctx := context.Background()
	c.Retries = 0
	if _, err := c.Download(ctx, modis.MOD021KM, 2022, 1, "garbage.hdf", t.TempDir()); err == nil {
		t.Error("garbage name accepted")
	}
	// Wrong product/date combination for a valid name.
	g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 2, Index: 0}
	name := modis.FileName(modis.MOD021KM, g)
	if _, err := c.Download(ctx, modis.MOD021KM, 2022, 1, name, t.TempDir()); err == nil {
		t.Error("mismatched date accepted")
	}
}

func TestRetryOnInjectedFaults(t *testing.T) {
	// With 40% failures and 5 retries the download should still succeed.
	_, ts := newTestServer(t, ServerConfig{FailureRate: 0.4, Seed: 42})
	c := NewClient(ts.URL, "")
	c.Retries = 5
	c.Backoff = time.Millisecond
	g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: 5}
	name := modis.FileName(modis.MOD03, g)
	res, err := c.Download(context.Background(), modis.MOD03, 2022, 1, name, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes == 0 {
		t.Fatal("no bytes after retries")
	}
}

func TestDownloadAllWorkerPool(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{})
	c := NewClient(ts.URL, "")
	dir := t.TempDir()
	tasks := DayTasks([]modis.Product{modis.MOD03, modis.MOD06L2}, 2022, 1, []int{0, 1, 2})
	if len(tasks) != 6 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	rep, err := c.DownloadAll(context.Background(), tasks, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Files) != 6 || rep.Failed != 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.TotalBytes == 0 || rep.MeanSpeedBytesPerSec() <= 0 {
		t.Fatalf("speed accounting: %+v", rep)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 {
		t.Fatalf("files on disk = %d", len(entries))
	}
}

func TestDownloadAllPropagatesFailures(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{FailureRate: 1.0, Seed: 1})
	c := NewClient(ts.URL, "")
	c.Retries = 1
	c.Backoff = time.Millisecond
	tasks := DayTasks([]modis.Product{modis.MOD03}, 2022, 1, []int{0, 1})
	rep, err := c.DownloadAll(context.Background(), tasks, t.TempDir(), 2)
	if err == nil {
		t.Fatal("total failure not reported")
	}
	if rep.Failed != 2 {
		t.Fatalf("failed = %d", rep.Failed)
	}
}

func TestContextCancellation(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{PerConnBytesPerSec: 1 << 10})
	c := NewClient(ts.URL, "")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: 0}
	name := modis.FileName(modis.MOD021KM, g)
	_, err := c.Download(ctx, modis.MOD021KM, 2022, 1, name, t.TempDir())
	if err == nil {
		t.Fatal("throttled download finished under a 50ms deadline")
	}
}

func TestPerConnectionThrottleShapesBandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// Serve one small product with a tight per-connection cap and verify
	// wall time is at least bytes/rate.
	_, ts := newTestServer(t, ServerConfig{ScaleDown: 64, PerConnBytesPerSec: 256 << 10})
	c := NewClient(ts.URL, "")
	g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: 7}
	name := modis.FileName(modis.MOD021KM, g)
	res, err := c.Download(context.Background(), modis.MOD021KM, 2022, 1, name, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	minTime := time.Duration(float64(res.Bytes) / float64(256<<10) * float64(time.Second))
	if res.Duration < minTime/2 {
		t.Fatalf("download of %d bytes took %v, cap implies >= %v", res.Bytes, res.Duration, minTime)
	}
}

func TestMoreWorkersImproveThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// The Fig. 3 effect at miniature scale: with per-connection caps well
	// under the aggregate cap, 3 workers beat 1.
	_, ts := newTestServer(t, ServerConfig{
		ScaleDown:            64,
		PerConnBytesPerSec:   128 << 10,
		AggregateBytesPerSec: 8 << 20,
	})
	c := NewClient(ts.URL, "")
	tasks := DayTasks([]modis.Product{modis.MOD021KM}, 2022, 1, []int{0, 1, 2, 3, 4, 5})

	rep1, err := c.DownloadAll(context.Background(), tasks, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rep3, err := c.DownloadAll(context.Background(), tasks, t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.MeanSpeedBytesPerSec() < rep1.MeanSpeedBytesPerSec()*1.5 {
		t.Fatalf("3 workers %.0f B/s vs 1 worker %.0f B/s: no speedup",
			rep3.MeanSpeedBytesPerSec(), rep1.MeanSpeedBytesPerSec())
	}
}

func TestRangeTasks(t *testing.T) {
	products := []modis.Product{modis.MOD021KM, modis.MOD03, modis.MOD06L2}
	tasks, err := RangeTasks(products, 2022, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 3 days × 288 granules × 3 products.
	if len(tasks) != 3*288*3 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	if tasks[0].DOY != 1 || tasks[len(tasks)-1].DOY != 3 {
		t.Fatalf("day range wrong: %d..%d", tasks[0].DOY, tasks[len(tasks)-1].DOY)
	}
	for _, bad := range [][2]int{{0, 3}, {3, 1}, {1, 400}} {
		if _, err := RangeTasks(products, 2022, bad[0], bad[1]); err == nil {
			t.Errorf("range %v accepted", bad)
		}
	}
}

func TestGranuleCacheServesIdenticalBytes(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{})
	c := NewClient(ts.URL, "")
	dir1, dir2 := t.TempDir(), t.TempDir()
	g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: 3}
	name := modis.FileName(modis.MOD06L2, g)
	ctx := context.Background()
	if _, err := c.Download(ctx, modis.MOD06L2, 2022, 1, name, dir1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Download(ctx, modis.MOD06L2, 2022, 1, name, dir2); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(dir1, name))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir2, name))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("repeat downloads differ")
	}
	// The handler counts a chunk after writing it, so the client can
	// finish reading first; Close waits for the handlers to return.
	ts.Close()
	reqs, sent := srv.Stats()
	if reqs < 2 || sent != int64(2*len(a)) {
		t.Fatalf("server stats: %d reqs, %d bytes (file %d)", reqs, sent, len(a))
	}
}

func TestTokenBucketTakeRespectsContext(t *testing.T) {
	// A bucket with a tiny refill rate would block a large take for
	// minutes; cancellation must release the waiter promptly and report
	// the context error without consuming budget.
	b := newTokenBucket(1 << 10)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.take(ctx, 1<<20) }()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("take returned nil after cancellation")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("take did not return after cancellation")
	}
	// An uncancelled take within budget still succeeds immediately.
	if err := b.take(context.Background(), 1); err != nil {
		t.Fatalf("small take failed: %v", err)
	}
}

func TestSleepCtx(t *testing.T) {
	if err := sleepCtx(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("uncancelled sleep: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sleepCtx(ctx, time.Hour); err == nil {
		t.Fatal("cancelled sleep returned nil")
	}
}
