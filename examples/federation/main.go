// Federation: the paper's §V vision assembled end to end.
//
// A pipeline is published to the federated registry, instantiated with
// site-specific parameters, and executed as a Zambeze-style campaign
// spanning two facilities: "olcf" runs the EO-ML workflow (download →
// tiles → AICCA labels → shipment), then "nersc" runs a downstream
// climate analysis over the shipped products. Provenance is recorded
// across the whole campaign.
//
//	go run ./examples/federation
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
	ctx := context.Background()

	// ---- Shared infrastructure ----------------------------------------
	archive, err := eoml.NewArchiveServer(eoml.ArchiveOptions{ScaleDown: scale})
	if err != nil {
		log.Fatal(err)
	}
	archiveSrv := httptest.NewServer(archive)
	defer archiveSrv.Close()

	root, err := os.MkdirTemp("", "eoml-federation-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	// ---- 1. Publish the workflow to the federated registry -------------
	registry, err := eoml.NewPipelineRegistry()
	if err != nil {
		log.Fatal(err)
	}
	published, err := registry.Publish(eoml.EOMLRegisteredPipeline())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("federation: published %s (components %v)\n", published.Ref(), published.Components)

	inst, err := registry.Instantiate(published.Ref(), map[string]any{
		"tile_pixels":        4,
		"preprocess_workers": 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("federation: instantiated with params %v\n", inst.Params)

	// ---- 2. Build facility agents ---------------------------------------
	cfg := eoml.DefaultConfig()
	cfg.ArchiveURL = archiveSrv.URL
	cfg.TilePixels = int(inst.Params["tile_pixels"].(int))
	cfg.PreprocessWorkers = int(inst.Params["preprocess_workers"].(int))
	cfg.DataDir = filepath.Join(root, "olcf", "data")
	cfg.TileDir = filepath.Join(root, "olcf", "tiles")
	cfg.OutboxDir = filepath.Join(root, "olcf", "outbox")
	cfg.DestDir = filepath.Join(root, "shared", "aicca") // cross-facility landing
	granules, err := eoml.FindDayGranules(cfg, scale, 4, 4)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Granules = granules

	prov := eoml.NewProvenanceStore()

	olcf, err := eoml.NewFacilityAgent("olcf", 2)
	if err != nil {
		log.Fatal(err)
	}
	err = olcf.RegisterPlugin("eo-ml", func(ctx context.Context, params map[string]any) (any, error) {
		labeler, err := eoml.TrainFromArchive(ctx, cfg, eoml.TrainOptions{Classes: 6, Epochs: 2, Seed: 14})
		if err != nil {
			return nil, err
		}
		pipe, err := eoml.NewPipeline(cfg, labeler)
		if err != nil {
			return nil, err
		}
		pipe.SetProvenance(prov)
		rep, err := pipe.Run(ctx)
		if err != nil {
			return nil, err
		}
		return rep.Summary(), nil
	})
	if err != nil {
		log.Fatal(err)
	}

	nersc, err := eoml.NewFacilityAgent("nersc", 2)
	if err != nil {
		log.Fatal(err)
	}
	err = nersc.RegisterPlugin("climate-analysis", func(ctx context.Context, params map[string]any) (any, error) {
		shipped, err := filepath.Glob(filepath.Join(cfg.DestDir, "*.nc"))
		if err != nil {
			return nil, err
		}
		var tiles []*eoml.Tile
		for _, path := range shipped {
			ts, err := eoml.ReadTiles(path)
			if err != nil {
				return nil, err
			}
			tiles = append(tiles, ts...)
		}
		atlas := eoml.ClassAtlas(tiles)
		return fmt.Sprintf("%d tiles across %d classes", len(tiles), len(atlas)), nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// ---- 3. Run the cross-facility campaign -----------------------------
	orch := eoml.NewOrchestrator()
	if err := orch.Connect(olcf); err != nil {
		log.Fatal(err)
	}
	if err := orch.Connect(nersc); err != nil {
		log.Fatal(err)
	}
	run, err := orch.Submit(ctx, &eoml.Campaign{
		Name: "eo-ml-federated",
		Activities: []eoml.CampaignActivity{
			{ID: "produce", Facility: "olcf", Plugin: "eo-ml"},
			{ID: "analyze", Facility: "nersc", Plugin: "climate-analysis", DependsOn: []string{"produce"}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := run.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	produce, _ := run.Result("produce")
	analyze, _ := run.Result("analyze")
	fmt.Println("federation: olcf/eo-ml:          ", produce)
	fmt.Println("federation: nersc/climate-analysis:", analyze)

	fmt.Println("\ncampaign events:")
	for _, ev := range run.Events() {
		fmt.Printf("  %-8s %-11s %s\n", ev.Activity, ev.State, ev.Detail)
	}

	// ---- 4. Provenance spans the campaign -------------------------------
	shipped, _ := filepath.Glob(filepath.Join(cfg.DestDir, "*.nc"))
	if len(shipped) > 0 {
		steps, err := prov.Lineage("shipped:" + filepath.Base(shipped[0]))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nlineage of %s: %d steps back to the archive\n", filepath.Base(shipped[0]), len(steps))
	}
}
