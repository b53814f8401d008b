package watch

import (
	"os"
	"path/filepath"
	"testing"
)

func write(t *testing.T, dir, name string, size int) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, make([]byte, size), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScanOnceRequiresTwoStableScans(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCrawler(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	write(t, dir, "tiles.nc", 100)
	ev, err := c.ScanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 0 {
		t.Fatalf("first scan triggered %v", ev)
	}
	ev, err = c.ScanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].Size != 100 {
		t.Fatalf("second scan: %v", ev)
	}
	// Never re-triggered.
	ev, err = c.ScanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 0 {
		t.Fatalf("third scan re-triggered %v", ev)
	}
}

func TestGrowingFileNotTriggered(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCrawler(Config{Dir: dir})
	write(t, dir, "grow.nc", 10)
	c.ScanOnce()
	write(t, dir, "grow.nc", 20) // grew between scans
	ev, err := c.ScanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 0 {
		t.Fatalf("growing file triggered: %v", ev)
	}
	ev, _ = c.ScanOnce()
	if len(ev) != 1 || ev[0].Size != 20 {
		t.Fatalf("stabilized file not triggered: %v", ev)
	}
}

func TestPatternAndSuffixFilters(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCrawler(Config{Dir: dir, Pattern: "*.nc"})
	write(t, dir, "keep.nc", 5)
	write(t, dir, "skip.txt", 5)
	write(t, dir, "partial.nc.part", 5)
	write(t, dir, "moving.nc.transferring", 5)
	c.ScanOnce()
	ev, err := c.ScanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || filepath.Base(ev[0].Path) != "keep.nc" {
		t.Fatalf("events = %v", ev)
	}
}

func TestRecursiveScan(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCrawler(Config{Dir: dir})
	write(t, dir, "a/b/deep.nc", 7)
	c.ScanOnce()
	ev, _ := c.ScanOnce()
	if len(ev) != 1 {
		t.Fatalf("nested file not found: %v", ev)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewCrawler(Config{}); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestVanishedFileSkipped(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCrawler(Config{Dir: dir})
	p := write(t, dir, "ghost.nc", 3)
	c.ScanOnce()
	os.Remove(p)
	if _, err := c.ScanOnce(); err != nil {
		t.Fatalf("scan failed on removed file: %v", err)
	}
}
