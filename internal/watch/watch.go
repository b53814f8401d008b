// Package watch implements a filesystem crawler for the paper's
// Monitor & Trigger stage (§III) on files written by other processes: a
// poll-based scanner that reports newly created files once they are
// stable (size unchanged across two scans), each exactly once.
//
// The pipeline itself does not crawl: its preprocess tasks hand each
// tile file they write straight to the inference service. The crawler is
// for a producer outside the run, which can only announce a file by
// writing it.
//
// Stability detection matters because the paper notes HDF read errors
// from partially written files; the crawler never reports a file that
// is still growing, and in-flight names (".part", ".tmp", ...) are
// skipped, so writers that use temp-file + rename are never seen
// half-written.
package watch

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Config tunes a crawler.
type Config struct {
	// Dir is the directory to scan (recursively).
	Dir string
	// Pattern filters file names with filepath.Match; empty matches all.
	Pattern string
	// Interval is the period at which the caller runs ScanOnce; the
	// crawler itself does not read it. The two-scan stability rule means
	// a file is reported one to two intervals after it stops growing.
	Interval time.Duration
	// IgnoreSuffixes skips in-flight files (".part", ".tmp", ...).
	IgnoreSuffixes []string
}

func (c *Config) fillDefaults() error {
	if c.Dir == "" {
		return fmt.Errorf("watch: no directory")
	}
	if c.IgnoreSuffixes == nil {
		c.IgnoreSuffixes = []string{".part", ".tmp", ".transferring"}
	}
	return nil
}

// Event reports one newly stable file.
type Event struct {
	Path string
	Size int64
}

// Crawler scans a directory tree and emits each stable file once.
type Crawler struct {
	cfg Config

	mu        sync.Mutex
	lastSize  map[string]int64
	triggered map[string]bool
}

// NewCrawler builds a crawler.
func NewCrawler(cfg Config) (*Crawler, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	return &Crawler{
		cfg:       cfg,
		lastSize:  map[string]int64{},
		triggered: map[string]bool{},
	}, nil
}

// ScanOnce walks the tree and returns files that are new since the
// previous scan and stable (same size in two consecutive scans). Each
// file is returned at most once over the crawler's lifetime.
func (c *Crawler) ScanOnce() ([]Event, error) {
	type seen struct {
		path string
		size int64
	}
	var found []seen
	err := filepath.Walk(c.cfg.Dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			// A file may vanish between readdir and stat; skip it.
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if info.IsDir() {
			return nil
		}
		name := info.Name()
		for _, suf := range c.cfg.IgnoreSuffixes {
			if strings.HasSuffix(name, suf) {
				return nil
			}
		}
		if c.cfg.Pattern != "" {
			ok, err := filepath.Match(c.cfg.Pattern, name)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		found = append(found, seen{path: path, size: info.Size()})
		return nil
	})
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	var events []Event
	for _, f := range found {
		if c.triggered[f.path] {
			continue
		}
		prev, known := c.lastSize[f.path]
		c.lastSize[f.path] = f.size
		if known && prev == f.size {
			c.triggered[f.path] = true
			events = append(events, Event{Path: f.path, Size: f.size})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Path < events[j].Path })
	return events, nil
}
