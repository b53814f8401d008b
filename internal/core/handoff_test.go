package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/tile"
)

// TestRunIgnoresStrayTileFile: an unlabeled tile file that the run did
// not write sits in TileDir before the run starts. Only the run's own
// files may be labeled and shipped, and the stray must not count toward
// the files inference waits for.
func TestRunIgnoresStrayTileFile(t *testing.T) {
	granules := findProductiveGranules(t, 4, 3)
	labeler := trainTestLabeler(t, granules[0])
	ts := newArchive(t)
	cfg := testConfig(t, ts.URL, granules[:3])

	gen, err := modis.NewGenerator(testScale)
	if err != nil {
		t.Fatal(err)
	}
	g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: granules[3]}
	mod02, _ := gen.Generate(modis.MOD021KM, g)
	mod03, _ := gen.Generate(modis.MOD03, g)
	mod06, _ := gen.Generate(modis.MOD06L2, g)
	res, err := tile.Extract(mod02, mod03, mod06, tile.Options{TileSize: cfg.TilePixels})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(cfg.TileDir, 0o755); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(cfg.TileDir, "stray.nc")
	if err := tile.WriteNetCDF(stray, res.Tiles); err != nil {
		t.Fatal(err)
	}

	p, err := New(cfg, labeler)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TilesLabeled != rep.TilesProduced {
		t.Errorf("labeled %d tiles, produced %d", rep.TilesLabeled, rep.TilesProduced)
	}

	var want []string
	for _, idx := range granules[:3] {
		g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: idx}
		want = append(want, fmt.Sprintf("tiles.%s.A%04d%03d.%s.nc", g.Satellite.Prefix(), g.Year, g.DOY, g.HHMM()))
	}
	sort.Strings(want)
	ents, err := os.ReadDir(cfg.DestDir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("destination holds %v, want the run's own files %v", got, want)
	}

	back, err := tile.ReadNetCDF(stray)
	if err != nil {
		t.Fatalf("stray file moved or damaged: %v", err)
	}
	for i, tl := range back {
		if tl.Label >= 0 {
			t.Fatalf("stray tile %d labeled %d", i, tl.Label)
		}
	}
}

// TestLongBatchDelayDoesNotStall: with the batch deadline set to an
// hour, both drivers still finish promptly, because the batcher flushes
// as soon as no other caller can join the batch.
func TestLongBatchDelayDoesNotStall(t *testing.T) {
	granules := findProductiveGranules(t, 3, 3)
	labeler := trainTestLabeler(t, granules[0])
	ts := newArchive(t)
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			cfg := testConfig(t, ts.URL, granules)
			cfg.BatchDelay = time.Hour
			cfg.InferenceWorkers = workers
			p, err := New(cfg, labeler)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := p.Run(ctx)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.TilesProduced == 0 || rep.TilesLabeled != rep.TilesProduced {
				t.Fatalf("Run: %s", rep.Summary())
			}

			cfg = testConfig(t, ts.URL, nil)
			cfg.BatchDelay = time.Hour
			cfg.InferenceWorkers = workers
			p, err = New(cfg, labeler)
			if err != nil {
				t.Fatal(err)
			}
			arrivals := make(chan int, len(granules))
			for _, idx := range granules {
				arrivals <- idx
			}
			close(arrivals)
			rep, err = p.RunStream(ctx, arrivals)
			if err != nil {
				t.Fatalf("RunStream: %v", err)
			}
			if rep.TilesProduced == 0 || rep.TilesLabeled != rep.TilesProduced {
				t.Fatalf("RunStream: %s", rep.Summary())
			}
		})
	}
}
