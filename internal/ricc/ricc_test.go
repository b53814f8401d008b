package ricc

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/eoml/eoml/internal/tile"
)

// syntheticTiles fabricates tiles with structured per-band patterns so the
// autoencoder has something learnable.
func syntheticTiles(n, ts, nb int, seed int64) []*tile.Tile {
	r := rand.New(rand.NewSource(seed))
	tiles := make([]*tile.Tile, n)
	bands := make([]int, nb)
	for b := range bands {
		bands[b] = b
	}
	for i := range tiles {
		data := make([]float32, nb*ts*ts)
		cx, cy := r.Float64()*float64(ts), r.Float64()*float64(ts)
		amp := 0.5 + r.Float64()
		for b := 0; b < nb; b++ {
			for y := 0; y < ts; y++ {
				for x := 0; x < ts; x++ {
					dx, dy := float64(x)-cx, float64(y)-cy
					v := amp * math.Exp(-(dx*dx+dy*dy)/float64(ts*2)) * (1 + 0.2*float64(b))
					data[b*ts*ts+y*ts+x] = float32(v + 0.02*r.NormFloat64())
				}
			}
		}
		tiles[i] = &tile.Tile{
			Granule:  "TEST",
			Data:     data,
			Bands:    bands,
			TileSize: ts,
			Label:    -1,
		}
	}
	return tiles
}

func smallConfig() Config {
	return Config{
		TileSize:  8,
		Channels:  3,
		LatentDim: 8,
		Beta:      0.5,
		LR:        2e-3,
		Epochs:    6,
		BatchSize: 16,
		Rotations: 3,
		Seed:      7,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{TileSize: 7, Channels: 1, LatentDim: 1, BatchSize: 1},
		{TileSize: 0, Channels: 1, LatentDim: 1, BatchSize: 1},
		{TileSize: 8, Channels: 0, LatentDim: 1, BatchSize: 1},
		{TileSize: 8, Channels: 1, LatentDim: 1, BatchSize: 1, Rotations: 4},
	}
	for i, cfg := range bad {
		if _, err := NewModel(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewModel(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestTrainingReducesReconstructionLoss(t *testing.T) {
	cfg := smallConfig()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tiles := syntheticTiles(64, cfg.TileSize, cfg.Channels, 1)
	hist, err := m.Train(tiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != cfg.Epochs {
		t.Fatalf("history length %d", len(hist))
	}
	first, last := hist[0].Reconstruction, hist[len(hist)-1].Reconstruction
	if !(last < first*0.8) {
		t.Fatalf("reconstruction did not improve: %v -> %v", first, last)
	}
}

func TestRotationPenaltyImprovesInvariance(t *testing.T) {
	// Train twin models from the same seed, one with Beta=0 — the design
	// choice the paper's RICC hinges on. The invariant model must embed
	// rotated tiles closer to the canonical embedding.
	cfgInv := smallConfig()
	cfgPlain := cfgInv
	cfgPlain.Beta = 0

	tiles := syntheticTiles(64, cfgInv.TileSize, cfgInv.Channels, 2)
	eval := syntheticTiles(16, cfgInv.TileSize, cfgInv.Channels, 3)

	mInv, err := NewModel(cfgInv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mInv.Train(tiles); err != nil {
		t.Fatal(err)
	}
	mPlain, err := NewModel(cfgPlain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mPlain.Train(tiles); err != nil {
		t.Fatal(err)
	}

	errInv, err := mInv.InvarianceError(eval)
	if err != nil {
		t.Fatal(err)
	}
	errPlain, err := mPlain.InvarianceError(eval)
	if err != nil {
		t.Fatal(err)
	}
	if !(errInv < errPlain*0.8) {
		t.Fatalf("rotation penalty did not help: with=%.4f without=%.4f", errInv, errPlain)
	}
}

func TestEncodeShapeAndDeterminism(t *testing.T) {
	cfg := smallConfig()
	cfg.Epochs = 2
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tiles := syntheticTiles(40, cfg.TileSize, cfg.Channels, 4)
	if _, err := m.Train(tiles); err != nil {
		t.Fatal(err)
	}
	z1, err := m.Encode(tiles)
	if err != nil {
		t.Fatal(err)
	}
	z2, err := m.Encode(tiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(z1) != len(tiles) || len(z1[0]) != cfg.LatentDim {
		t.Fatalf("embedding shape %d×%d", len(z1), len(z1[0]))
	}
	if !reflect.DeepEqual(z1, z2) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestEncodeRequiresTraining(t *testing.T) {
	m, err := NewModel(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Encode(syntheticTiles(2, 8, 3, 5)); err == nil {
		t.Fatal("untrained encode accepted")
	}
	if _, err := m.InvarianceError(syntheticTiles(2, 8, 3, 5)); err == nil {
		t.Fatal("untrained invariance accepted")
	}
}

func TestSaveLoadModelRoundTrip(t *testing.T) {
	cfg := smallConfig()
	cfg.Epochs = 2
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tiles := syntheticTiles(32, cfg.TileSize, cfg.Channels, 6)
	if _, err := m.Train(tiles); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.hdf")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cfg.TileSize != cfg.TileSize || m2.Cfg.LatentDim != cfg.LatentDim {
		t.Fatalf("config lost: %+v", m2.Cfg)
	}
	z1, err := m.Encode(tiles[:8])
	if err != nil {
		t.Fatal(err)
	}
	z2, err := m2.Encode(tiles[:8])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(z1, z2) {
		t.Fatal("loaded model encodes differently")
	}
}

func TestSaveUntrainedModelRejected(t *testing.T) {
	m, err := NewModel(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(filepath.Join(t.TempDir(), "m.hdf")); err == nil {
		t.Fatal("untrained save accepted")
	}
}

func TestCodebookRoundTripAndAssign(t *testing.T) {
	// Latents in three obvious groups.
	var latents [][]float32
	for g := 0; g < 3; g++ {
		for i := 0; i < 10; i++ {
			latents = append(latents, []float32{float32(g) * 10, float32(g)*10 + float32(i)*0.01})
		}
	}
	cb, res, err := BuildCodebook(latents, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 3 || len(cb.Centroids) != 3 {
		t.Fatalf("K = %d", res.K())
	}
	labels, err := cb.Assign(latents)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(labels, res.Labels) {
		t.Fatal("assignment disagrees with clustering")
	}
	path := filepath.Join(t.TempDir(), "codebook.hdf")
	if err := cb.Save(path); err != nil {
		t.Fatal(err)
	}
	cb2, err := LoadCodebook(path)
	if err != nil {
		t.Fatal(err)
	}
	labels2, err := cb2.Assign(latents)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(labels, labels2) {
		t.Fatal("loaded codebook assigns differently")
	}
}

// TestLoadRejectsNonFinite poisons one value of each kind of dataset a
// model or codebook file holds; loading must fail and name the dataset.
func TestLoadRejectsNonFinite(t *testing.T) {
	cfg := smallConfig()
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	newModel := func() *Model {
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Norm = &Normalizer{Min: make([]float32, cfg.Channels), Max: make([]float32, cfg.Channels)}
		for i := range m.Norm.Max {
			m.Norm.Max[i] = 1
		}
		return m
	}
	params := newModel().Params()
	last := len(params) - 1
	for _, tc := range []struct {
		name   string
		poison func(m *Model)
	}{
		{params[0].Name, func(m *Model) { m.Params()[0].W.Data[1] = nan }},
		{params[last].Name, func(m *Model) { m.Params()[last].W.Data[0] = -inf }},
		{"norm.min", func(m *Model) { m.Norm.Min[0] = nan }},
		{"norm.max", func(m *Model) { m.Norm.Max[cfg.Channels-1] = inf }},
	} {
		m := newModel()
		tc.poison(m)
		path := filepath.Join(t.TempDir(), "model.hdf")
		if err := m.Save(path); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.name)) {
			t.Fatalf("poisoned %s: Load error = %v, want one naming it", tc.name, err)
		}
	}

	cb := &Codebook{Centroids: [][]float32{{1, 2}, {3, float32(math.Inf(-1))}}}
	path := filepath.Join(t.TempDir(), "codebook.hdf")
	if err := cb.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCodebook(path); err == nil || !strings.Contains(err.Error(), `"centroids"`) {
		t.Fatalf("poisoned codebook: LoadCodebook error = %v, want one naming centroids", err)
	}
}

func TestLoadRejectsWrongKind(t *testing.T) {
	dir := t.TempDir()
	cb := &Codebook{Centroids: [][]float32{{1, 2}}}
	path := filepath.Join(dir, "cb.hdf")
	if err := cb.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("codebook loaded as model")
	}
}

func TestNormalizerMapsToUnitRange(t *testing.T) {
	tiles := syntheticTiles(16, 8, 3, 7)
	norm, err := FitNormalizer(tiles)
	if err != nil {
		t.Fatal(err)
	}
	x, err := TilesToTensor(tiles, norm)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range x.Data {
		if v < 0 || v > 1 {
			t.Fatalf("normalized value %v at %d", v, i)
		}
	}
}

func TestFitNormalizerDegenerateBand(t *testing.T) {
	ts := 4
	data := make([]float32, 2*ts*ts) // all zeros: degenerate range
	tl := &tile.Tile{Data: data, Bands: []int{0, 1}, TileSize: ts}
	norm, err := FitNormalizer([]*tile.Tile{tl})
	if err != nil {
		t.Fatal(err)
	}
	x, err := TilesToTensor([]*tile.Tile{tl}, norm)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("degenerate band produced NaN/Inf")
		}
	}
}
