// Atlas scenario: the climate-science payoff of the workflow.
//
// AICCA's purpose is to relate AI-derived cloud classes to physical cloud
// properties across space and time. This example labels several days of
// synthetic MODIS observations, aggregates the per-class physics (cloud
// top pressure, optical thickness, effective radius, ice fraction), and
// prints the class atlas plus a latitude-band distribution — a miniature
// of the daily-to-decadal analysis the paper's §II describes.
//
//	go run ./examples/atlas
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"

	"github.com/eoml/eoml"
)

func main() {
	const scale = 32
	archive, err := eoml.NewArchiveServer(eoml.ArchiveOptions{ScaleDown: scale})
	if err != nil {
		log.Fatal(err)
	}
	server := httptest.NewServer(archive)
	defer server.Close()

	root, err := os.MkdirTemp("", "eoml-atlas-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	baseCfg := eoml.DefaultConfig()
	baseCfg.ArchiveURL = server.URL
	baseCfg.TilePixels = 4
	baseCfg.PreprocessWorkers = 8

	// Train once on day 1.
	baseCfg.DataDir = filepath.Join(root, "train", "data")
	baseCfg.TileDir = filepath.Join(root, "train", "tiles")
	baseCfg.OutboxDir = filepath.Join(root, "train", "outbox")
	baseCfg.DestDir = filepath.Join(root, "train", "dest")
	trainGranules, err := eoml.FindDayGranules(baseCfg, scale, 4, 4)
	if err != nil {
		log.Fatal(err)
	}
	baseCfg.Granules = trainGranules
	ctx := context.Background()
	fmt.Printf("atlas: training on granules %v of day 1…\n", trainGranules)
	labeler, err := eoml.TrainFromArchive(ctx, baseCfg, eoml.TrainOptions{Classes: 8, Epochs: 3, Seed: 4})
	if err != nil {
		log.Fatal(err)
	}

	// Label three days and accumulate every shipped tile.
	var allTiles []*eoml.Tile
	for _, doy := range []int{1, 2, 3} {
		cfg := baseCfg
		cfg.DOY = doy
		day := fmt.Sprintf("day%03d", doy)
		cfg.DataDir = filepath.Join(root, day, "data")
		cfg.TileDir = filepath.Join(root, day, "tiles")
		cfg.OutboxDir = filepath.Join(root, day, "outbox")
		cfg.DestDir = filepath.Join(root, day, "dest")
		granules, err := eoml.FindDayGranules(cfg, scale, 4, 4)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Granules = granules
		pipe, err := eoml.NewPipeline(cfg, labeler)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := pipe.Run(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("atlas: day %d: %s\n", doy, rep.Summary())
		shipped, err := filepath.Glob(filepath.Join(cfg.DestDir, "*.nc"))
		if err != nil {
			log.Fatal(err)
		}
		for _, path := range shipped {
			tiles, err := eoml.ReadTiles(path)
			if err != nil {
				log.Fatal(err)
			}
			allTiles = append(allTiles, tiles...)
		}
	}

	// The class atlas: AI classes ↔ cloud physics.
	fmt.Printf("\nAICCA class atlas over %d ocean-cloud tiles:\n", len(allTiles))
	fmt.Printf("%-6s %-7s %-10s %-10s %-10s %-10s %-8s\n",
		"class", "count", "CTP(hPa)", "COT", "CER(um)", "cloudfrac", "ice")
	for _, cs := range eoml.ClassAtlas(allTiles) {
		fmt.Printf("%-6d %-7d %-10.0f %-10.1f %-10.1f %-10.2f %-8.2f\n",
			cs.Class, cs.Count, cs.MeanCloudTopPressure, cs.MeanOpticalThickness,
			cs.MeanEffectiveRadius, cs.MeanCloudFraction, cs.IceFraction)
	}

	// Geographic class distribution, the kind of spatial association
	// AICCA publishes (e.g. stratocumulus decks in the subtropics).
	fmt.Println("\nclass occurrence by 20° cell (dominant class and share):")
	cells, err := eoml.GeoHistogram(allTiles, 20)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range cells {
		cl, share := c.DominantClass()
		fmt.Printf("  lat %+4.0f..%+4.0f lon %+5.0f..%+5.0f: %4d tiles, class %d (%.0f%%)\n",
			c.LatMin, c.LatMin+20, c.LonMin, c.LonMin+20, c.Total, cl, share*100)
	}
}
