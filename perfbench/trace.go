package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, or one wait a granule spent on
// a layer. Spans of one granule share Trace; Parent names the span
// that caused this one (0 for a root).
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Trace  string  `json:"trace,omitempty"`
	Run    string  `json:"run"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Wait   bool    `json:"wait,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// Duration is End-Start in seconds.
func (s Span) Duration() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the benchmark ends. Times are
// seconds since epoch.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// at converts a wall-clock instant to recorder seconds.
func (r *recorder) at(t time.Time) float64 { return t.Sub(r.epoch).Seconds() }

// add stores a finished span and returns its ID.
func (r *recorder) add(s Span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// timed runs fn inside span s and records it.
func (r *recorder) timed(s Span, fn func() error) error {
	start := time.Now()
	err := fn()
	s.Start, s.End = r.at(start), r.at(time.Now())
	r.add(s)
	return err
}

// of returns the spans of one run.
func (r *recorder) of(run string) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	for _, s := range r.spans {
		if s.Run == run {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	spans := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one worth reporting
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// interval is a closed time range in seconds.
type interval struct{ lo, hi float64 }

// coverage is the length of the union of ivs clipped to [lo, hi].
func coverage(ivs []interval, lo, hi float64) float64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	total, end := 0.0, lo
	for _, iv := range clipped {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTimes maps each span ID to its self time: its duration minus the
// part of that interval its child spans cover.
func selfTimes(spans []Span) map[int]float64 {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Duration() - coverage(children[s.ID], s.Start, s.End)
	}
	return out
}

// set replaces the span with ID id, for a span whose children must
// name it before it ends.
func (r *recorder) set(id int, s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = id
	r.spans[id-1] = s
}
