// Scaling study: measured worker-fleet scaling, then capacity planning.
//
// The paper motivates its throughput measurements with "dynamic
// tokenization and sharding of petascale satellite data for distributed
// AI model training ... across thousands of GPUs". Earlier revisions of
// this example answered the planner's questions purely on the
// calibrated discrete-event model; now that the repo has a real worker
// fleet (`internal/fleet`, DESIGN.md §15), the scaling curve itself is
// *measured*: the same campaign runs against 1, 2, and 4 fleet workers
// leasing tile extraction and inference, with the synthetic archive
// shaping each connection's bandwidth so fetch latency — the
// multi-facility regime — bounds throughput.
//
//	go run ./examples/scaling
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/eoml/eoml"
)

func main() {
	const scale = 64 // granule resolution divisor; tiles are 128/64×2 = 4 px at tile.pixels 4
	const token = "demo"

	// A local LAADS stand-in that throttles every connection to
	// 256 KiB/s: adding workers adds concurrent fetch streams, which is
	// exactly why the paper fans the download-heavy stages out.
	archive, err := eoml.NewArchiveServer(eoml.ArchiveOptions{
		ScaleDown:          scale,
		Token:              token,
		PerConnBytesPerSec: 256 << 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	server := httptest.NewServer(archive)
	defer server.Close()

	root, err := os.MkdirTemp("", "eoml-scaling-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	base := eoml.DefaultConfig()
	base.ArchiveURL = server.URL
	base.ArchiveToken = token
	base.TilePixels = 4
	base.DataDir = filepath.Join(root, "seed", "data") // placeholder; per-run dirs below
	base.TileDir = filepath.Join(root, "seed", "tiles")
	base.OutboxDir = filepath.Join(root, "seed", "outbox")
	base.DestDir = filepath.Join(root, "seed", "dest")

	granules, err := eoml.FindDayGranules(base, scale, 8, 1)
	if err != nil {
		log.Fatal(err)
	}
	base.Granules = granules
	fmt.Printf("scaling: campaign of %d granules from 2022-001 (Terra)\n", len(granules))

	// Fleet workers load model artifacts from shared storage, so train
	// once and save to disk — the `model.weights`/`model.codebook` keys
	// of a YAML declaration.
	ctx := context.Background()
	fmt.Println("scaling: training RICC autoencoder + AICCA codebook…")
	labeler, err := eoml.TrainFromArchive(ctx, base, eoml.TrainOptions{Classes: 6, Epochs: 2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	base.ModelPath = filepath.Join(root, "ricc.hdf")
	base.CodebookPath = filepath.Join(root, "codebook.hdf")
	if err := labeler.Model.Save(base.ModelPath); err != nil {
		log.Fatal(err)
	}
	if err := labeler.Codebook.Save(base.CodebookPath); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println("== Strong scaling, measured: fixed campaign vs fleet size ==")
	fmt.Println()
	fmt.Println("workers   elapsed      granules/s   speedup")
	var base1 float64
	for _, workers := range []int{1, 2, 4} {
		gps, elapsed := runFleet(ctx, base, root, workers)
		if base1 == 0 {
			base1 = gps
		}
		fmt.Printf("%7d   %-9s    %8.2f   %6.2fx\n",
			workers, elapsed.Round(10*time.Millisecond), gps, gps/base1)
	}

	// Planner's corollary, now anchored on the measured single-worker
	// rate: a MODIS day is 288 granules, so the per-worker rate tells
	// you how many fetch-bound workers a day's reprocessing needs.
	fmt.Println()
	perDay := 288.0 / base1
	fmt.Printf("capacity plan: 1 day of MODIS ≈ %.0f s on 1 worker at this bandwidth; "+
		"fleet scaling is ~linear while fetch-bound, so N workers divide that by ~N\n", perDay)
	fmt.Println("(full-scale strong/weak curves over real processes: BENCH_9.json, BenchmarkFleetScaling)")
}

// runFleet executes the campaign with distribution:fleet against n
// in-process fleet workers and returns (granules/s, elapsed).
func runFleet(ctx context.Context, base eoml.Config, root string, n int) (float64, time.Duration) {
	coord := eoml.NewFleetCoordinator(eoml.FleetConfig{})
	defer coord.Close()
	cp := httptest.NewServer(coord.Handler())
	defer cp.Close()

	for i := 0; i < n; i++ {
		w, err := eoml.NewFleetWorker(eoml.FleetWorkerConfig{
			ID:             fmt.Sprintf("scaling-worker-%d", i),
			CoordinatorURL: cp.URL,
			Slots:          1,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := w.Start(ctx); err != nil {
			log.Fatal(err)
		}
		defer w.Stop()
	}

	cfg := base
	dir := filepath.Join(root, fmt.Sprintf("fleet-%d", n))
	cfg.DataDir = filepath.Join(dir, "data")
	cfg.TileDir = filepath.Join(dir, "tiles")
	cfg.OutboxDir = filepath.Join(dir, "outbox")
	cfg.DestDir = filepath.Join(dir, "dest")
	cfg.Distribution = "fleet"

	eng := eoml.NewEngine(eoml.EngineOptions{Fleet: coord})
	run, err := eng.NewRun(cfg, eoml.RunOptions{ID: fmt.Sprintf("fleet-%d", n)})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	rep, err := run.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	if rep.TilesLabeled == 0 {
		log.Fatal("scaling: fleet run labeled nothing")
	}
	return float64(rep.GranulesRequested) / elapsed.Seconds(), elapsed
}
