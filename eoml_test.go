package eoml_test

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/eoml/eoml"
)

// startArchive serves a tiny synthetic archive for facade tests.
func startArchive(t *testing.T) *httptest.Server {
	t.Helper()
	h, err := eoml.NewArchiveServer(eoml.ArchiveOptions{ScaleDown: 64, Token: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

func facadeConfig(t *testing.T, url string) eoml.Config {
	t.Helper()
	root := t.TempDir()
	cfg := eoml.DefaultConfig()
	cfg.ArchiveURL = url
	cfg.ArchiveToken = "tok"
	// Indices around local noon on the synthetic orbit (day side with
	// ocean clouds); verified productive by the core tests at scale 64.
	cfg.Granules = []int{2, 3, 4}
	cfg.TilePixels = 4
	cfg.PreprocessWorkers = 4
	cfg.DataDir = filepath.Join(root, "data")
	cfg.TileDir = filepath.Join(root, "tiles")
	cfg.OutboxDir = filepath.Join(root, "outbox")
	cfg.DestDir = filepath.Join(root, "orion")
	return cfg
}

// pickProductiveGranules scans for day granules that yield tiles by
// running training with each candidate until one sticks.
func pickProductiveGranules(t *testing.T, cfg *eoml.Config, archiveURL string) {
	t.Helper()
	ctx := context.Background()
	for start := 0; start < 288; start += 4 {
		cfg.Granules = []int{start, start + 1, start + 2}
		if _, err := eoml.TrainFromArchive(ctx, *cfg, eoml.TrainOptions{Classes: 4, Epochs: 1}); err == nil {
			return
		}
	}
	t.Fatal("no productive granule window found")
}

func TestFacadeTrainRunAtlas(t *testing.T) {
	ts := startArchive(t)
	cfg := facadeConfig(t, ts.URL)
	pickProductiveGranules(t, &cfg, ts.URL)
	ctx := context.Background()

	labeler, err := eoml.TrainFromArchive(ctx, cfg, eoml.TrainOptions{Classes: 4, Epochs: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Save/load round trip through the facade.
	dir := t.TempDir()
	mp, cp := filepath.Join(dir, "m.hdf"), filepath.Join(dir, "cb.hdf")
	if err := eoml.SaveLabeler(labeler, mp, cp); err != nil {
		t.Fatal(err)
	}
	loaded, err := eoml.LoadLabeler(mp, cp)
	if err != nil {
		t.Fatal(err)
	}

	pipe, err := eoml.NewPipeline(cfg, loaded)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pipe.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TilesLabeled == 0 || rep.FilesShipped == 0 {
		t.Fatalf("report: %s", rep.Summary())
	}

	// Read a shipped file and build the class atlas.
	shipped, err := filepath.Glob(filepath.Join(cfg.DestDir, "*.nc"))
	if err != nil || len(shipped) == 0 {
		t.Fatalf("no shipped files: %v", err)
	}
	tiles, err := eoml.ReadTiles(shipped[0])
	if err != nil {
		t.Fatal(err)
	}
	atlas := eoml.ClassAtlas(tiles)
	if len(atlas) == 0 {
		t.Fatal("empty atlas from labeled tiles")
	}
	for _, cs := range atlas {
		if cs.Class < 0 || cs.Class >= 4 || cs.Count == 0 {
			t.Fatalf("atlas row %+v", cs)
		}
	}
}

func TestLoadConfigFileFacade(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wf.yaml")
	doc := `
archive:
  url: http://localhost:9
paths:
  data: ` + dir + `/d
  tiles: ` + dir + `/t
  outbox: ` + dir + `/o
  dest: ` + dir + `/x
`
	if err := writeFile(path, doc); err != nil {
		t.Fatal(err)
	}
	cfg, err := eoml.LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ArchiveURL != "http://localhost:9" {
		t.Fatalf("cfg: %+v", cfg)
	}
}

func TestReproduceFunctionsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full table sweeps")
	}
	if s := eoml.ReproduceHeadline(); !strings.Contains(s, "12,000 tiles") {
		t.Errorf("headline: %s", s)
	}
	if s := eoml.ReproduceFig3(); !strings.Contains(s, "workers") {
		t.Errorf("fig3 render broken")
	}
	s6, err := eoml.ReproduceFig6()
	if err != nil || !strings.Contains(s6, "timeline") {
		t.Errorf("fig6: %v", err)
	}
	s7, err := eoml.ReproduceFig7()
	if err != nil || !strings.Contains(s7, "latency") {
		t.Errorf("fig7: %v", err)
	}
	ab, err := eoml.ReproduceAblations()
	if err != nil || !strings.Contains(ab, "fair-share") {
		t.Errorf("ablations: %v", err)
	}
}

func TestTrainValidation(t *testing.T) {
	cfg := facadeConfig(t, "http://localhost:1")
	cfg.Granules = nil
	if _, err := eoml.TrainFromArchive(context.Background(), cfg, eoml.TrainOptions{}); err == nil {
		t.Fatal("no granules accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
