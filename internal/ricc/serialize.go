package ricc

import (
	"fmt"
	"math"

	"github.com/eoml/eoml/internal/cluster42"
	"github.com/eoml/eoml/internal/hdf"
)

// Save writes the model weights, normalizer, and configuration to an
// HDF-lite container.
func (m *Model) Save(path string) error {
	if m.Norm == nil {
		return fmt.Errorf("ricc: cannot save untrained model (no normalizer)")
	}
	f := hdf.NewFile()
	f.Attrs["kind"] = "ricc-model"
	f.Attrs["tile_size"] = int64(m.Cfg.TileSize)
	f.Attrs["channels"] = int64(m.Cfg.Channels)
	f.Attrs["latent_dim"] = int64(m.Cfg.LatentDim)
	f.Attrs["beta"] = m.Cfg.Beta
	f.Attrs["seed"] = m.Cfg.Seed
	for _, p := range m.Params() {
		d, err := hdf.NewFloat32(p.Name, p.W.Shape, p.W.Data)
		if err != nil {
			return err
		}
		if err := f.Add(d); err != nil {
			return err
		}
	}
	nb := len(m.Norm.Min)
	minD, err := hdf.NewFloat32("norm.min", []int{nb}, m.Norm.Min)
	if err != nil {
		return err
	}
	maxD, err := hdf.NewFloat32("norm.max", []int{nb}, m.Norm.Max)
	if err != nil {
		return err
	}
	if err := f.Add(minD); err != nil {
		return err
	}
	if err := f.Add(maxD); err != nil {
		return err
	}
	return hdf.WriteFile(path, f)
}

// Load reconstructs a model from a container written by Save.
func Load(path string) (*Model, error) {
	f, err := hdf.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if kind, _ := f.AttrString("kind"); kind != "ricc-model" {
		return nil, fmt.Errorf("ricc: %s is not a RICC model file", path)
	}
	cfg := DefaultConfig()
	if v, ok := f.AttrInt("tile_size"); ok {
		cfg.TileSize = int(v)
	}
	if v, ok := f.AttrInt("channels"); ok {
		cfg.Channels = int(v)
	}
	if v, ok := f.AttrInt("latent_dim"); ok {
		cfg.LatentDim = int(v)
	}
	if v, ok := f.AttrFloat("beta"); ok {
		cfg.Beta = v
	}
	if v, ok := f.AttrInt("seed"); ok {
		cfg.Seed = v
	}
	m, err := NewModel(cfg)
	if err != nil {
		return nil, err
	}
	for _, p := range m.Params() {
		d, err := f.Dataset(p.Name)
		if err != nil {
			return nil, err
		}
		if d.Len() != p.W.Len() {
			return nil, fmt.Errorf("ricc: parameter %q has %d values, want %d", p.Name, d.Len(), p.W.Len())
		}
		if err := d.Float32sInto(p.W.Data); err != nil {
			return nil, err
		}
		if err := checkFinite(path, p.Name, p.W.Data); err != nil {
			return nil, err
		}
	}
	norm := &Normalizer{}
	for _, part := range []struct {
		name string
		dst  *[]float32
	}{{"norm.min", &norm.Min}, {"norm.max", &norm.Max}} {
		d, err := f.Dataset(part.name)
		if err != nil {
			return nil, err
		}
		vals, err := d.Float32s()
		if err != nil {
			return nil, err
		}
		if err := checkFinite(path, part.name, vals); err != nil {
			return nil, err
		}
		*part.dst = vals
	}
	m.Norm = norm
	return m, nil
}

// checkFinite rejects a NaN or ±Inf in a loaded dataset. A non-finite
// weight or centroid would silently poison every label, and the GEMM
// kernels' bit-identity between the register microkernel and the axpy
// loop assumes finite weights (see internal/tensor/blocked.go).
func checkFinite(path, name string, vals []float32) error {
	const expMask = 0x7f800000 // all-ones exponent: ±Inf or NaN
	for i, v := range vals {
		if math.Float32bits(v)&expMask == expMask {
			return fmt.Errorf("ricc: %s: dataset %q: element %d is %v, want finite", path, name, i, v)
		}
	}
	return nil
}

// Codebook is the fixed set of AICCA cluster centroids produced by the
// training pipeline and consumed by inference.
type Codebook struct {
	Centroids [][]float32
}

// BuildCodebook clusters latent vectors into k classes with Ward linkage
// and returns the resulting centroids.
func BuildCodebook(latents [][]float32, k int) (*Codebook, *cluster42.Result, error) {
	res, err := cluster42.Agglomerate(latents, k, cluster42.Ward)
	if err != nil {
		return nil, nil, err
	}
	return &Codebook{Centroids: res.Centroids}, res, nil
}

// Assign labels latent vectors by nearest centroid.
func (cb *Codebook) Assign(latents [][]float32) ([]int, error) {
	return cluster42.Assign(latents, cb.Centroids)
}

// Save writes the codebook to an HDF-lite container.
func (cb *Codebook) Save(path string) error {
	if len(cb.Centroids) == 0 {
		return fmt.Errorf("ricc: empty codebook")
	}
	k, dim := len(cb.Centroids), len(cb.Centroids[0])
	flat := make([]float32, 0, k*dim)
	for _, c := range cb.Centroids {
		if len(c) != dim {
			return fmt.Errorf("ricc: ragged codebook")
		}
		flat = append(flat, c...)
	}
	f := hdf.NewFile()
	f.Attrs["kind"] = "ricc-codebook"
	f.Attrs["classes"] = int64(k)
	d, err := hdf.NewFloat32("centroids", []int{k, dim}, flat)
	if err != nil {
		return err
	}
	if err := f.Add(d); err != nil {
		return err
	}
	return hdf.WriteFile(path, f)
}

// LoadCodebook reads a codebook container.
func LoadCodebook(path string) (*Codebook, error) {
	f, err := hdf.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if kind, _ := f.AttrString("kind"); kind != "ricc-codebook" {
		return nil, fmt.Errorf("ricc: %s is not a codebook file", path)
	}
	d, err := f.Dataset("centroids")
	if err != nil {
		return nil, err
	}
	if len(d.Dims) != 2 {
		return nil, fmt.Errorf("ricc: centroids rank %d", len(d.Dims))
	}
	flat, err := d.Float32s()
	if err != nil {
		return nil, err
	}
	if err := checkFinite(path, "centroids", flat); err != nil {
		return nil, err
	}
	k, dim := d.Dims[0], d.Dims[1]
	cb := &Codebook{Centroids: make([][]float32, k)}
	for i := 0; i < k; i++ {
		cb.Centroids[i] = flat[i*dim : (i+1)*dim]
	}
	return cb, nil
}
