package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/core"
	"github.com/eoml/eoml/internal/hdf"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/ricc"
	"github.com/eoml/eoml/internal/tile"
)

const (
	archiveToken = "perfbench-token"
	benchYear    = 2022
	// trainTiles is how many reference tiles train the labeler: enough
	// for a 42-class codebook, few enough that training stays a small
	// part of fixture preparation.
	trainTiles = 128
	// warmParallel bounds how many granules warm the archive at once.
	// Shaped archives pace every response, so warm-up overlaps several.
	warmParallel = 8
)

// refFile is what a shipped tile file of one granule must contain.
type refFile struct {
	granule string // source granule name the tiles record
	labels  []int16
	rows    []int
	cols    []int
}

// fixture is everything a workload needs before timing starts: the
// seeded inputs, a warm archive, saved model artifacts and the
// reference labels every run's output is checked against. It is built
// once per process and excluded from every metric.
type fixture struct {
	w        workload
	root     string
	doy      int
	granules []int
	ref      map[int]refFile
	tiles    int

	model, codebook string
	labeler         *aicca.Labeler

	probe   *archiveProbe
	archive *httptest.Server
}

// newFixture derives the workload's inputs from seed, warms the archive
// with every product file they need, trains and saves the labeler, and
// computes reference labels.
//
// The seed picks the day of year and, per stratum of that day's
// productive day-side granules ranked by tile count, which granule the
// run asks for. Stratifying, then balancing the picks to a fixed total
// tile count, keeps the work of a run the same on every seed: seeds
// vary the inputs, not how much there is to do.
func newFixture(ctx context.Context, w workload, seed int64, root string) (*fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	fx := &fixture{w: w, root: root, doy: 1 + rng.Intn(365), ref: map[int]refFile{}}

	strata, counts, err := stratify(ctx, fx.doy, w.granules)
	if err != nil {
		return nil, err
	}
	for _, st := range strata {
		rng.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
	}
	balance(strata, counts, screenTilesPerGranule*len(strata))

	server, err := laads.NewServer(laads.ServerConfig{
		ScaleDown:          w.scale,
		Token:              archiveToken,
		PerConnBytesPerSec: w.perConn,
		// Hold every product file warm-up touches, so no timed run
		// regenerates a granule inside the archive.
		CacheGranules: 3 * modis.GranulesPerDay,
	})
	if err != nil {
		return nil, err
	}

	// Take each stratum's first granule that yields tiles at the
	// workload's scale; the coarse ranking can call a granule productive
	// that is not.
	kept := make([]extracted, 0, len(strata))
	for len(strata) > 0 {
		var wave []int
		for _, st := range strata[:min(warmParallel, len(strata))] {
			wave = append(wave, st[0])
		}
		got, err := warmAndExtract(ctx, server, w, fx.doy, wave)
		if err != nil {
			return nil, err
		}
		var retry [][]int
		for i, e := range got {
			st := strata[i]
			switch {
			case len(e.tiles) > 0:
				kept = append(kept, e)
			case len(st) > 1:
				retry = append(retry, st[1:])
			default:
				return nil, fmt.Errorf("day %d: a stratum of granules yields no tiles at scale %d", fx.doy, w.scale)
			}
		}
		strata = append(retry, strata[len(wave):]...)
	}

	var train []*tile.Tile
	for _, e := range kept {
		if len(train) < trainTiles {
			train = append(train, e.tiles[:min(len(e.tiles), trainTiles-len(train))]...)
		}
	}
	if err := fx.trainLabeler(train); err != nil {
		return nil, err
	}
	for _, e := range kept {
		labels, err := fx.labeler.LabelTiles(e.tiles)
		if err != nil {
			return nil, fmt.Errorf("reference labels for granule %d: %w", e.index, err)
		}
		ref := refFile{granule: e.tiles[0].Granule, labels: labels}
		for _, t := range e.tiles {
			ref.rows = append(ref.rows, t.Row)
			ref.cols = append(ref.cols, t.Col)
		}
		fx.ref[e.index] = ref
		fx.granules = append(fx.granules, e.index)
		fx.tiles += len(e.tiles)
	}
	sort.Ints(fx.granules)

	fx.probe = &archiveProbe{next: server}
	fx.archive = httptest.NewServer(fx.probe)
	return fx, nil
}

// close stops the archive.
func (fx *fixture) close() { fx.archive.Close() }

// tilePixels is the tile edge on the workload's scaled granules: a
// full-resolution 128-pixel AICCA tile.
func (w workload) tilePixels() int {
	gen := modis.Generator{ScaleDown: w.scale}
	return gen.TilePixels()
}

// screenScale is the coarse resolution the fixture ranks a day's
// granules at: fast to generate, with tiles still 8 pixels wide.
const screenScale = 16

// minScreenTiles is the fewest tiles at screenScale that counts a
// granule as productive; granules with one or two tiles there can
// yield none at the workload's scale.
const minScreenTiles = 5

// stratify ranks the day's productive day-side granules by their tile
// count at screenScale and splits them into n strata of neighbouring
// counts.
func stratify(ctx context.Context, doy, n int) ([][]int, []int, error) {
	gen, err := modis.NewGenerator(screenScale)
	if err != nil {
		return nil, nil, err
	}
	counts := make([]int, modis.GranulesPerDay)
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for idx := w; idx < modis.GranulesPerDay && ctx.Err() == nil; idx += len(errs) {
				counts[idx], errs[w] = screenGranule(gen, doy, idx)
				if errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(append(errs, ctx.Err())...); err != nil {
		return nil, nil, err
	}
	var productive []int
	for idx, c := range counts {
		if c >= minScreenTiles {
			productive = append(productive, idx)
		}
	}
	if len(productive) < n {
		return nil, nil, fmt.Errorf("day %d has %d productive day-side granules, workload needs %d", doy, len(productive), n)
	}
	sort.SliceStable(productive, func(i, j int) bool { return counts[productive[i]] < counts[productive[j]] })
	strata := make([][]int, n)
	for i := range strata {
		strata[i] = append([]int(nil), productive[i*len(productive)/n:(i+1)*len(productive)/n]...)
	}
	return strata, counts, nil
}

// screenTilesPerGranule is the mean tile count of a productive
// day-side granule at screenScale, the same on every day to within a
// few percent.
const screenTilesPerGranule = 48

// balance moves to the front of each stratum the granule picked for
// the run. It starts from each stratum's first granule and swaps one
// pick at a time for another granule of its stratum while that brings
// the picks' total tile count closer to target.
func balance(strata [][]int, counts []int, target int) {
	total := 0
	for _, st := range strata {
		total += counts[st[0]]
	}
	for {
		bestI, bestJ, bestGap := -1, -1, abs(total-target)
		for i, st := range strata {
			for j := 1; j < len(st); j++ {
				if gap := abs(total - counts[st[0]] + counts[st[j]] - target); gap < bestGap {
					bestI, bestJ, bestGap = i, j, gap
				}
			}
		}
		if bestI < 0 {
			return
		}
		st := strata[bestI]
		total += counts[st[bestJ]] - counts[st[0]]
		st[0], st[bestJ] = st[bestJ], st[0]
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// screenGranule is a granule's tile count at the generator's scale; 0
// for a night-side granule.
func screenGranule(gen *modis.Generator, doy, idx int) (int, error) {
	g := modis.GranuleID{Satellite: modis.Terra, Year: benchYear, DOY: doy, Index: idx}
	mod02, err := gen.Generate(modis.MOD021KM, g)
	if err != nil {
		return 0, err
	}
	if flag, _ := mod02.AttrString("DayNightFlag"); flag != "Day" {
		return 0, nil
	}
	mod03, err := gen.Generate(modis.MOD03, g)
	if err != nil {
		return 0, err
	}
	mod06, err := gen.Generate(modis.MOD06L2, g)
	if err != nil {
		return 0, err
	}
	res, err := tile.Extract(mod02, mod03, mod06, tile.Options{TileSize: gen.TilePixels(), MinCloudFrac: core.DefaultConfig().MinCloudFrac})
	if err != nil {
		return 0, err
	}
	return len(res.Tiles), nil
}

// extracted is one warmed granule and the tiles the pipeline's
// preprocessing must cut from it.
type extracted struct {
	index int
	tiles []*tile.Tile
}

// warmAndExtract fetches every product of each granule through the
// archive handler — which fills its cache — and cuts the tiles from the
// bytes served, in the order of indices.
func warmAndExtract(ctx context.Context, server http.Handler, w workload, doy int, indices []int) ([]extracted, error) {
	out := make([]extracted, len(indices))
	errs := make([]error, len(indices))
	var wg sync.WaitGroup
	for i, idx := range indices {
		wg.Add(1)
		go func(i, idx int) {
			defer wg.Done()
			out[i], errs[i] = warmGranule(ctx, server, w, doy, idx)
		}(i, idx)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func warmGranule(ctx context.Context, server http.Handler, w workload, doy, idx int) (extracted, error) {
	g := modis.GranuleID{Satellite: modis.Terra, Year: benchYear, DOY: doy, Index: idx}
	var files [3]*hdf.File
	for i, kind := range []modis.Kind{modis.L1B, modis.Geo, modis.Cloud} {
		prod := modis.Product{Satellite: g.Satellite, Kind: kind}
		url := fmt.Sprintf("/archive/%s/%d/%d/%s", prod.ShortName(), g.Year, g.DOY, modis.FileName(prod, g))
		req := httptest.NewRequest(http.MethodGet, url, nil).WithContext(ctx)
		req.Header.Set("Authorization", "Bearer "+archiveToken)
		rec := httptest.NewRecorder()
		server.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return extracted{}, fmt.Errorf("warm %s: HTTP %d", url, rec.Code)
		}
		f, err := hdf.Read(bytes.NewReader(rec.Body.Bytes()))
		if err != nil {
			return extracted{}, fmt.Errorf("warm %s: %w", url, err)
		}
		files[i] = f
	}
	cfg := core.DefaultConfig()
	res, err := tile.Extract(files[0], files[1], files[2], tile.Options{
		TileSize:     w.tilePixels(),
		MinCloudFrac: cfg.MinCloudFrac,
	})
	if err != nil {
		return extracted{}, fmt.Errorf("extract granule %d: %w", idx, err)
	}
	return extracted{index: idx, tiles: res.Tiles}, nil
}

// trainLabeler fits the RICC encoder and codebook on tiles, saves both
// artifacts (runs load them at set-up, as a deployment does), and keeps
// the labeler loaded back from disk for reference labels.
func (fx *fixture) trainLabeler(tiles []*tile.Tile) error {
	cfg := ricc.DefaultConfig()
	cfg.TileSize = fx.w.tilePixels()
	cfg.Epochs = 1
	cfg.Rotations = 1
	trained, _, err := aicca.Train(tiles, cfg, min(aicca.NumClasses, len(tiles)))
	if err != nil {
		return fmt.Errorf("train labeler: %w", err)
	}
	dir := filepath.Join(fx.root, "model")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fx.model = filepath.Join(dir, "ricc.hdf")
	fx.codebook = filepath.Join(dir, "aicca-codebook.hdf")
	if err := trained.Model.Save(fx.model); err != nil {
		return err
	}
	if err := trained.Codebook.Save(fx.codebook); err != nil {
		return err
	}
	m, err := ricc.Load(fx.model)
	if err != nil {
		return err
	}
	cb, err := ricc.LoadCodebook(fx.codebook)
	if err != nil {
		return err
	}
	fx.labeler, err = aicca.NewLabeler(m, cb)
	return err
}
