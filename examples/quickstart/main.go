// Quickstart: the smallest complete EO-ML run.
//
// It starts an in-process synthetic LAADS archive, trains a miniature
// RICC model on one day's cloud tiles, then executes the five-stage
// workflow — download, preprocess, monitor & trigger, inference,
// shipment — and prints the run report.
//
//	go run ./examples/quickstart
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
	const scale = 32 // granule resolution divisor; tiles are 128/32 = 4 px

	// A local stand-in for the NASA LAADS DAAC.
	archive, err := eoml.NewArchiveServer(eoml.ArchiveOptions{ScaleDown: scale, Token: "demo"})
	if err != nil {
		log.Fatal(err)
	}
	server := httptest.NewServer(archive)
	defer server.Close()

	root, err := os.MkdirTemp("", "eoml-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	cfg := eoml.DefaultConfig()
	cfg.ArchiveURL = server.URL
	cfg.ArchiveToken = "demo"
	cfg.TilePixels = 4
	cfg.PreprocessWorkers = 4
	cfg.DataDir = filepath.Join(root, "data")
	cfg.TileDir = filepath.Join(root, "tiles")
	cfg.OutboxDir = filepath.Join(root, "outbox")
	cfg.DestDir = filepath.Join(root, "orion")

	// Pick three daytime granules with ocean clouds.
	granules, err := eoml.FindDayGranules(cfg, scale, 3, 4)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Granules = granules
	fmt.Printf("quickstart: using granules %v of 2022-001 (Terra)\n", granules)

	ctx := context.Background()
	fmt.Println("quickstart: training RICC autoencoder + AICCA codebook…")
	labeler, err := eoml.TrainFromArchive(ctx, cfg, eoml.TrainOptions{Classes: 6, Epochs: 3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	pipe, err := eoml.NewPipeline(cfg, labeler)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("quickstart: running the five-stage workflow…")
	rep, err := pipe.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("quickstart:", rep.Summary())

	// Inspect a shipped, labeled product.
	shipped, err := filepath.Glob(filepath.Join(cfg.DestDir, "*.nc"))
	if err != nil || len(shipped) == 0 {
		log.Fatalf("no shipped files: %v", err)
	}
	tiles, err := eoml.ReadTiles(shipped[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("quickstart: %s holds %d labeled tiles; first tile class=%d cloudFrac=%.2f CTP=%.0f hPa\n",
		filepath.Base(shipped[0]), len(tiles), tiles[0].Label, tiles[0].CloudFrac, tiles[0].MeanCTP)
}
