// Streaming + continual learning: the paper's §V vision of "more dynamic
// AI applications that involve training new versions of the models,
// continual learning and inferring with batch as well as streaming data".
//
// Day 1 is processed as a batch and used to train the model. Day 2 then
// arrives as a *stream* of granules (a simulated downlink); each granule
// is downloaded and labeled as it lands. Finally the model is continually
// updated on the day-2 tiles with replay from day 1, and the drift of the
// encoder on day-1 data is reported with and without that update — plus
// the provenance lineage of one shipped product.
//
//	go run ./examples/streaming
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
	const scale = 32
	archive, err := eoml.NewArchiveServer(eoml.ArchiveOptions{ScaleDown: scale})
	if err != nil {
		log.Fatal(err)
	}
	server := httptest.NewServer(archive)
	defer server.Close()

	root, err := os.MkdirTemp("", "eoml-streaming-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	mkcfg := func(day int, sub string) eoml.Config {
		cfg := eoml.DefaultConfig()
		cfg.ArchiveURL = server.URL
		cfg.DOY = day
		cfg.TilePixels = 4
		cfg.PreprocessWorkers = 4
		cfg.DataDir = filepath.Join(root, sub, "data")
		cfg.TileDir = filepath.Join(root, sub, "tiles")
		cfg.OutboxDir = filepath.Join(root, sub, "outbox")
		cfg.DestDir = filepath.Join(root, sub, "dest")
		return cfg
	}
	ctx := context.Background()

	// ---- Day 1: batch training ---------------------------------------
	day1 := mkcfg(1, "day1")
	g1, err := eoml.FindDayGranules(day1, scale, 4, 4)
	if err != nil {
		log.Fatal(err)
	}
	day1.Granules = g1
	fmt.Printf("streaming: training on day 1 granules %v…\n", g1)
	labeler, err := eoml.TrainFromArchive(ctx, day1, eoml.TrainOptions{Classes: 6, Epochs: 3, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}

	// Keep day-1 tiles in a replay buffer and as a drift probe.
	pipe1, err := eoml.NewPipeline(day1, labeler)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := pipe1.Run(ctx); err != nil {
		log.Fatal(err)
	}
	var day1Tiles []*eoml.Tile
	shipped1, _ := filepath.Glob(filepath.Join(day1.DestDir, "*.nc"))
	for _, path := range shipped1 {
		tiles, err := eoml.ReadTiles(path)
		if err != nil {
			log.Fatal(err)
		}
		day1Tiles = append(day1Tiles, tiles...)
	}
	replay, err := eoml.NewReplayBuffer(256, 10)
	if err != nil {
		log.Fatal(err)
	}
	replay.Add(day1Tiles)
	driftBefore, err := eoml.LabelerDriftOn(labeler, day1Tiles)
	if err != nil {
		log.Fatal(err)
	}

	// ---- Day 2: streaming inference with provenance -------------------
	day2 := mkcfg(2, "day2")
	g2, err := eoml.FindDayGranules(day2, scale, 4, 4)
	if err != nil {
		log.Fatal(err)
	}
	pipe2, err := eoml.NewPipeline(day2, labeler)
	if err != nil {
		log.Fatal(err)
	}
	prov := eoml.NewProvenanceStore()
	pipe2.SetProvenance(prov)

	arrivals := make(chan int)
	go func() {
		defer close(arrivals)
		for _, idx := range g2 {
			fmt.Printf("streaming: granule %d downlinked\n", idx)
			arrivals <- idx
			time.Sleep(30 * time.Millisecond)
		}
	}()
	rep, err := pipe2.RunStream(ctx, arrivals)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("streaming: day 2 stream:", rep.Summary())

	// ---- Continual update with replay ----------------------------------
	var day2Tiles []*eoml.Tile
	shipped2, _ := filepath.Glob(filepath.Join(day2.DestDir, "*.nc"))
	for _, path := range shipped2 {
		tiles, err := eoml.ReadTiles(path)
		if err != nil {
			log.Fatal(err)
		}
		day2Tiles = append(day2Tiles, tiles...)
	}
	if err := eoml.UpdateLabeler(labeler, day2Tiles, replay, 3); err != nil {
		log.Fatal(err)
	}
	driftAfter, err := eoml.LabelerDriftOn(labeler, day1Tiles)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streaming: continual update on %d day-2 tiles with replay — day-1 reconstruction error %.5f → %.5f\n",
		len(day2Tiles), driftBefore, driftAfter)

	// ---- Provenance lineage of one shipped product ---------------------
	if len(shipped2) > 0 {
		name := filepath.Base(shipped2[0])
		steps, err := prov.Lineage("shipped:" + name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nprovenance of %s:\n", name)
		for _, s := range steps {
			fmt.Printf("  %-10s by %-16s inputs=%d\n", s.Activity.Name, s.Activity.Agent, len(s.Inputs))
		}
	}
}
