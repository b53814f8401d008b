// Package core orchestrates the real-mode EO-ML workflow: the five-stage
// pipeline of the paper (download → preprocess → monitor & trigger →
// inference → shipment) executed against actual bytes — a LAADS-style
// archive over HTTP, HDF-lite granules on disk, a pool of compute
// workers doing real tile extraction, a Globus-Flows-style inference
// flow, and a checksum-verified transfer to the destination filesystem.
//
// Users declare a run in a YAML file (parsed by internal/yamlite), just
// as the paper's users configure their queries, endpoints, products, and
// time spans.
package core

import (
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/yamlite"
)

// Config declares one workflow run.
type Config struct {
	// Observation selection.
	Satellite modis.Satellite
	Year      int
	DOY       int
	// Granules selects five-minute slots (0..287); empty means the whole
	// day.
	Granules []int

	// Archive access.
	ArchiveURL   string
	ArchiveToken string

	// Directories (created if missing).
	DataDir   string // downloaded granules
	TileDir   string // preprocessed tile NetCDF files
	OutboxDir string // labeled files staged for shipment
	DestDir   string // destination filesystem ("Orion")

	// Stage parallelism (the paper's Fig. 6 run uses 3 / 32 / 1).
	DownloadWorkers   int
	PreprocessWorkers int
	InferenceWorkers  int

	// Tile extraction.
	TilePixels   int // tile edge in granule pixels
	MinCloudFrac float64

	// PollInterval is the scan period for a watch.Crawler over tile
	// files written by other processes. The pipeline does not read it:
	// its monitor is a push from preprocess. It stays so perfbench's
	// crawler replay and existing configs that set poll_interval_ms keep
	// working.
	PollInterval time.Duration

	// StallTimeout caps how long the run waits for inference to catch up
	// with the expected tile-file count before declaring a stall.
	StallTimeout time.Duration

	// Inference batching: tiles from different tile files are coalesced
	// into one encode batch, flushed at BatchTiles tiles, as soon as no
	// other inference worker can join, or BatchDelay after the first
	// pending tile, whichever comes first.
	BatchTiles int
	BatchDelay time.Duration

	// Precision selects the encode arithmetic for inference: "float32"
	// (the default, full-precision GEMM) or "int8" (symmetric quantized
	// GEMM — faster, with a test-pinned label-flip bound).
	Precision string

	// Model artifacts; when both are set the labeler is loaded from disk
	// instead of being supplied programmatically.
	ModelPath    string
	CodebookPath string

	// MetricsAddr, when non-empty, is the host:port cmd/eoml serves
	// /metrics and /healthz on for the lifetime of the run.
	MetricsAddr string

	// Distribution selects where preprocess and inference execute:
	// "local" (default — an in-process compute endpoint serving the
	// fleet kernels, plus the cross-file batcher) or "fleet" (tasks leased to registered eoml-worker processes via
	// the engine's fleet coordinator). Fleet mode requires model and
	// codebook paths, since workers load weights from shared storage.
	Distribution string
}

// Distribution modes.
const (
	DistributionLocal = "local"
	DistributionFleet = "fleet"
)

// DefaultConfig returns a runnable baseline (archive URL and directories
// must still be set).
func DefaultConfig() Config {
	return Config{
		Satellite:         modis.Terra,
		Year:              2022,
		DOY:               1,
		DownloadWorkers:   3,
		PreprocessWorkers: 8,
		InferenceWorkers:  1,
		TilePixels:        16,
		MinCloudFrac:      0.3,
		PollInterval:      50 * time.Millisecond,
		StallTimeout:      5 * time.Minute,
		BatchTiles:        256,
		BatchDelay:        20 * time.Millisecond,
		Precision:         string(aicca.PrecisionFloat32),
		Distribution:      DistributionLocal,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Year < 2000 || c.Year > 2100 {
		return fmt.Errorf("core: year %d out of range", c.Year)
	}
	if c.DOY < 1 || c.DOY > 366 {
		return fmt.Errorf("core: day-of-year %d out of range", c.DOY)
	}
	for _, g := range c.Granules {
		if g < 0 || g >= modis.GranulesPerDay {
			return fmt.Errorf("core: granule index %d out of range", g)
		}
	}
	if c.ArchiveURL == "" {
		return fmt.Errorf("core: archive URL required")
	}
	for name, dir := range map[string]string{
		"data": c.DataDir, "tile": c.TileDir, "outbox": c.OutboxDir, "dest": c.DestDir,
	} {
		if dir == "" {
			return fmt.Errorf("core: %s directory required", name)
		}
	}
	if c.DownloadWorkers <= 0 || c.PreprocessWorkers <= 0 || c.InferenceWorkers <= 0 {
		return fmt.Errorf("core: worker counts must be positive")
	}
	if c.TilePixels < 4 {
		return fmt.Errorf("core: tile pixels %d too small", c.TilePixels)
	}
	if c.MinCloudFrac < 0 || c.MinCloudFrac > 1 {
		return fmt.Errorf("core: cloud fraction %v out of [0,1]", c.MinCloudFrac)
	}
	if c.PollInterval <= 0 {
		return fmt.Errorf("core: poll interval must be positive")
	}
	if c.StallTimeout <= 0 {
		return fmt.Errorf("core: stall timeout must be positive")
	}
	if c.BatchTiles <= 0 {
		return fmt.Errorf("core: batch tiles must be positive")
	}
	if c.BatchDelay <= 0 {
		return fmt.Errorf("core: batch delay must be positive")
	}
	if _, err := aicca.ParsePrecision(c.Precision); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	switch c.Distribution {
	case "", DistributionLocal:
	case DistributionFleet:
		if c.ModelPath == "" || c.CodebookPath == "" {
			return fmt.Errorf("core: distribution %q requires model.weights and model.codebook (workers load artifacts from shared storage)", c.Distribution)
		}
	default:
		return fmt.Errorf("core: unknown distribution %q (want %q or %q)", c.Distribution, DistributionLocal, DistributionFleet)
	}
	return nil
}

// Products returns the three products the pipeline downloads.
func (c *Config) Products() []modis.Product {
	return []modis.Product{
		{Satellite: c.Satellite, Kind: modis.L1B},
		{Satellite: c.Satellite, Kind: modis.Geo},
		{Satellite: c.Satellite, Kind: modis.Cloud},
	}
}

// GranuleIDs expands the configured granule selection.
func (c *Config) GranuleIDs() []modis.GranuleID {
	indices := c.Granules
	if len(indices) == 0 {
		indices = make([]int, modis.GranulesPerDay)
		for i := range indices {
			indices[i] = i
		}
	}
	out := make([]modis.GranuleID, 0, len(indices))
	for _, idx := range indices {
		out = append(out, modis.GranuleID{Satellite: c.Satellite, Year: c.Year, DOY: c.DOY, Index: idx})
	}
	return out
}

// LoadConfig parses a YAML workflow declaration. Example:
//
//	satellite: Terra
//	year: 2022
//	doy: 1
//	granules: [144, 150, 156]
//	archive:
//	  url: http://localhost:8900
//	  token: secret
//	paths:
//	  data: /scratch/eoml/data
//	  tiles: /scratch/eoml/tiles
//	  outbox: /scratch/eoml/outbox
//	  dest: /orion/eoml
//	workers:
//	  download: 3
//	  preprocess: 32
//	  inference: 1
//	tile:
//	  pixels: 16
//	  min_cloud_fraction: 0.3
//	poll_interval_ms: 50
//	stall_timeout_ms: 300000
//	batch:
//	  tiles: 256
//	  delay_ms: 20
//	precision: float32
//	model:
//	  weights: model.hdf
//	  codebook: codebook.hdf
//	metrics_addr: localhost:9090
func LoadConfig(data []byte) (*Config, error) {
	doc, err := yamlite.ParseMap(data)
	if err != nil {
		return nil, err
	}
	if err := checkKeys(doc); err != nil {
		return nil, err
	}
	cfg := DefaultConfig()

	if v, ok := doc["satellite"].(string); ok {
		switch v {
		case "Terra", "terra":
			cfg.Satellite = modis.Terra
		case "Aqua", "aqua":
			cfg.Satellite = modis.Aqua
		default:
			return nil, fmt.Errorf("core: unknown satellite %q", v)
		}
	}
	if v, ok := doc["year"].(int64); ok {
		cfg.Year = int(v)
	}
	if v, ok := doc["doy"].(int64); ok {
		cfg.DOY = int(v)
	}
	if list, ok := doc["granules"].([]any); ok {
		for _, item := range list {
			n, ok := item.(int64)
			if !ok {
				return nil, fmt.Errorf("core: granule index %v is not an integer", item)
			}
			cfg.Granules = append(cfg.Granules, int(n))
		}
	}
	if m, ok := doc["archive"].(map[string]any); ok {
		if v, ok := m["url"].(string); ok {
			cfg.ArchiveURL = v
		}
		if v, ok := m["token"].(string); ok {
			cfg.ArchiveToken = v
		}
	}
	if m, ok := doc["paths"].(map[string]any); ok {
		if v, ok := m["data"].(string); ok {
			cfg.DataDir = v
		}
		if v, ok := m["tiles"].(string); ok {
			cfg.TileDir = v
		}
		if v, ok := m["outbox"].(string); ok {
			cfg.OutboxDir = v
		}
		if v, ok := m["dest"].(string); ok {
			cfg.DestDir = v
		}
	}
	if m, ok := doc["workers"].(map[string]any); ok {
		if v, ok := m["download"].(int64); ok {
			cfg.DownloadWorkers = int(v)
		}
		if v, ok := m["preprocess"].(int64); ok {
			cfg.PreprocessWorkers = int(v)
		}
		if v, ok := m["inference"].(int64); ok {
			cfg.InferenceWorkers = int(v)
		}
	}
	if m, ok := doc["tile"].(map[string]any); ok {
		if v, ok := m["pixels"].(int64); ok {
			cfg.TilePixels = int(v)
		}
		switch v := m["min_cloud_fraction"].(type) {
		case float64:
			cfg.MinCloudFrac = v
		case int64:
			cfg.MinCloudFrac = float64(v)
		}
	}
	if v, ok := doc["poll_interval_ms"].(int64); ok {
		cfg.PollInterval = time.Duration(v) * time.Millisecond
	}
	if v, ok := doc["stall_timeout_ms"].(int64); ok {
		cfg.StallTimeout = time.Duration(v) * time.Millisecond
	}
	if m, ok := doc["batch"].(map[string]any); ok {
		if v, ok := m["tiles"].(int64); ok {
			cfg.BatchTiles = int(v)
		}
		if v, ok := m["delay_ms"].(int64); ok {
			cfg.BatchDelay = time.Duration(v) * time.Millisecond
		}
	}
	if v, ok := doc["precision"].(string); ok {
		cfg.Precision = v
	}
	if m, ok := doc["model"].(map[string]any); ok {
		if v, ok := m["weights"].(string); ok {
			cfg.ModelPath = v
		}
		if v, ok := m["codebook"].(string); ok {
			cfg.CodebookPath = v
		}
	}
	if v, ok := doc["metrics_addr"].(string); ok {
		cfg.MetricsAddr = v
	}
	if v, ok := doc["distribution"].(string); ok {
		cfg.Distribution = v
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// valueKind is the YAML value type a config key accepts.
type valueKind string

const (
	kindString valueKind = "a string"
	kindInt    valueKind = "an integer"
	kindNumber valueKind = "a number"
	kindList   valueKind = "a list"
)

// accepts reports whether a parsed YAML value has this kind.
func (k valueKind) accepts(v any) bool {
	switch v.(type) {
	case string:
		return k == kindString
	case int64:
		return k == kindInt || k == kindNumber
	case float64:
		return k == kindNumber
	case []any:
		return k == kindList
	}
	return false
}

// configSchema is every YAML key LoadConfig understands, nested keys in
// dotted form, with the value kind each accepts.
var configSchema = []struct {
	key  string
	kind valueKind
}{
	{"satellite", kindString},
	{"year", kindInt},
	{"doy", kindInt},
	{"granules", kindList},
	{"archive.url", kindString},
	{"archive.token", kindString},
	{"paths.data", kindString},
	{"paths.tiles", kindString},
	{"paths.outbox", kindString},
	{"paths.dest", kindString},
	{"workers.download", kindInt},
	{"workers.preprocess", kindInt},
	{"workers.inference", kindInt},
	{"tile.pixels", kindInt},
	{"tile.min_cloud_fraction", kindNumber},
	{"poll_interval_ms", kindInt},
	{"stall_timeout_ms", kindInt},
	{"batch.tiles", kindInt},
	{"batch.delay_ms", kindInt},
	{"precision", kindString},
	{"model.weights", kindString},
	{"model.codebook", kindString},
	{"metrics_addr", kindString},
	{"distribution", kindString},
}

// ConfigKeys lists every YAML key LoadConfig understands, nested keys
// in dotted form. DESIGN.md's config table and cmd/eoml's sample config
// are tested against this list, so a key added to LoadConfig without an
// entry here (or an entry without parsing code) fails the build — see
// TestConfigKeysMatchParser.
func ConfigKeys() []string {
	keys := make([]string, len(configSchema))
	for i, k := range configSchema {
		keys[i] = k.key
	}
	return keys
}

// checkKeys flattens the parsed document to dotted keys and rejects the
// first (in sorted order) that ConfigKeys does not list, naming the
// closest known key, or whose value has the wrong kind — so a typo such
// as `precison: int8` fails loudly instead of running on the default.
// Null values count as absent.
func checkKeys(doc map[string]any) error {
	flat := map[string]any{}
	flatten("", doc, flat)
	keys := make([]string, 0, len(flat))
	for k := range flat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kinds := map[string]valueKind{}
	for _, k := range configSchema {
		kinds[k.key] = k.kind
	}
	for _, key := range keys {
		kind, ok := kinds[key]
		if !ok {
			return fmt.Errorf("core: unknown config key %q (did you mean %q?)", key, closestKey(key))
		}
		if v := flat[key]; !kind.accepts(v) {
			return fmt.Errorf("core: config key %q must be %s, got %T %v", key, kind, v, v)
		}
	}
	return nil
}

// flatten writes m's non-null leaves into out under dotted keys.
func flatten(prefix string, m map[string]any, out map[string]any) {
	for k, v := range m {
		switch v := v.(type) {
		case nil:
		case map[string]any:
			flatten(prefix+k+".", v, out)
		default:
			out[prefix+k] = v
		}
	}
}

// closestKey is the known config key nearest to key by edit distance.
func closestKey(key string) string {
	best, bestDist := "", -1
	for _, k := range configSchema {
		if d := editDistance(key, k.key); bestDist < 0 || d < bestDist {
			best, bestDist = k.key, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur := make([]int, len(b)+1)
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev = cur
	}
	return prev[len(b)]
}

// LoadConfigFile reads and parses a YAML config from disk.
func LoadConfigFile(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg, err := LoadConfig(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}
