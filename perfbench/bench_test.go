package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/eoml/eoml/internal/tile"
)

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 1; i <= 99; i++ {
		xs = append(xs, float64(i))
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 of 99 samples has fewer than 10 beyond it and must fail")
	}
	xs = append(xs, 100)
	p90, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if want := 90.1; math.Abs(p90-want) > 1e-9 {
		t.Fatalf("p90 = %v, want %v", p90, want)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples must fail")
	}
	p50, err := percentile(xs[:20], 0.5)
	if err != nil || p50 != 10.5 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10.5", p50, err)
	}
	for _, q := range []float64{0, 1, -0.5} {
		if _, err := percentile(xs, q); err == nil {
			t.Fatalf("percentile %v must fail", q)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 1, End: 3},
		{ID: 3, Parent: 1, Start: 2, End: 5}, // overlaps span 2
		{ID: 4, Parent: 1, Start: 8, End: 12},
		{ID: 5, Parent: 4, Start: 9, End: 10},
	}
	self := selfTimes(spans)
	// Children cover [1,5] and [8,10] of the parent: 6 of its 10 s.
	want := map[int]float64{1: 4, 2: 2, 3: 3, 4: 3, 5: 1}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-12 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	if got := coverage([]interval{{5, 7}, {1, 2}, {6, 9}}, 0, 8); got != 4 {
		t.Errorf("coverage = %v, want 4", got)
	}
}

func TestMetricNamesAreValid(t *testing.T) {
	reps := []repResult{{requested: 1, wall: 1, latencies: make([]float64, p90Samples)}}
	e2e, err := endToEnd(reps, []float64{0.001})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range e2e {
		names[m.name] = true
	}
	for _, m := range perLayerNames {
		names[m.name] = true
	}
	for name := range names {
		if !validName(name) {
			t.Errorf("metric name %q is not valid", name)
		}
	}
	for _, bad := range []string{"", "-lead", ".lead", "has space", "slash/name", "colon:name", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// shippedFixture writes one labeled tile file per reference granule
// into a fresh destination directory.
func shippedFixture(t *testing.T) (string, map[int]refFile) {
	t.Helper()
	dest := t.TempDir()
	ref := map[int]refFile{}
	for _, idx := range []int{12, 40} {
		r := refFile{granule: "MOD021KM.A2022001." + map[int]string{12: "0100", 40: "0320"}[idx]}
		var tiles []*tile.Tile
		for i := 0; i < 3; i++ {
			tl := &tile.Tile{
				Granule: r.granule, Row: i, Col: 2 * i,
				Data: make([]float32, 6*4*4), Bands: []int{0, 1, 2, 3, 4, 5}, TileSize: 4,
				Label: int16(idx + i),
			}
			tiles = append(tiles, tl)
			r.labels = append(r.labels, tl.Label)
			r.rows = append(r.rows, tl.Row)
			r.cols = append(r.cols, tl.Col)
		}
		ref[idx] = r
		if err := tile.WriteNetCDF(filepath.Join(dest, r.granule+".nc"), tiles); err != nil {
			t.Fatal(err)
		}
	}
	return dest, ref
}

func TestCheckShippedCatchesCorruptedLabel(t *testing.T) {
	dest, ref := shippedFixture(t)
	res, err := checkShipped(dest, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.problems) > 0 || len(res.verified) != 2 {
		t.Fatalf("clean output failed the check: %+v", res)
	}

	bad := append([]int16(nil), ref[40].labels...)
	bad[1]++
	if err := tile.AppendLabels(filepath.Join(dest, ref[40].granule+".nc"), bad); err != nil {
		t.Fatal(err)
	}
	res, err = checkShipped(dest, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.problems) == 0 || res.failed != 1 || len(res.verified) != 1 {
		t.Fatalf("corrupted label passed: failed=%d verified=%v", res.failed, res.verified)
	}
	if !strings.Contains(strings.Join(res.problems, "\n"), "tile 1 label") {
		t.Fatalf("problems do not name the bad label: %q", res.problems)
	}
}

func TestCheckShippedCatchesMissingAndUnlabeledFiles(t *testing.T) {
	dest, ref := shippedFixture(t)
	if err := os.Remove(filepath.Join(dest, ref[12].granule+".nc")); err != nil {
		t.Fatal(err)
	}
	unlabeled := []int16{-1, -1, -1}
	if err := tile.AppendLabels(filepath.Join(dest, ref[40].granule+".nc"), unlabeled); err != nil {
		t.Fatal(err)
	}
	res, err := checkShipped(dest, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.problems) == 0 || res.failed != 2 {
		t.Fatalf("missing and unlabeled files passed: failed=%d problems=%q", res.failed, res.problems)
	}
}

func TestBalanceSwapsPicksTowardTarget(t *testing.T) {
	counts := []int{10, 20, 30, 40, 50, 60}
	strata := [][]int{{0, 1, 2}, {3, 4, 5}}
	balance(strata, counts, 70)
	got := counts[strata[0][0]] + counts[strata[1][0]]
	if got != 70 {
		t.Fatalf("balanced total = %d (picks %d, %d), want 70", got, strata[0][0], strata[1][0])
	}
	for i, st := range strata {
		if len(st) != 3 {
			t.Fatalf("stratum %d lost members: %v", i, st)
		}
	}
}

func TestLatencyGroupsHoldAP90Each(t *testing.T) {
	var reps []repResult
	for i := 0; i < 10; i++ {
		reps = append(reps, repResult{latencies: make([]float64, 36)})
	}
	groups := latencyGroups(reps)
	var sizes []int
	for _, g := range groups {
		sizes = append(sizes, len(g))
		if _, err := percentile(g, 0.9); err != nil {
			t.Errorf("group of %d samples: %v", len(g), err)
		}
	}
	if want := []int{108, 108, 144}; fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Fatalf("group sizes = %v, want %v", sizes, want)
	}
	if got := latencyGroups(reps[:2]); len(got) != 1 || len(got[0]) != 72 {
		t.Fatalf("too few samples for a group must still give one group of all 72, got %d groups", len(got))
	}
}
