package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/eoml/eoml/internal/tile"
)

// checkResult is the verdict on one run's shipped files.
type checkResult struct {
	// verified maps each shipped file name whose labels match the
	// reference to its granule index.
	verified map[string]int
	// failed counts requested granules without a verified file:
	// missing, unreadable, duplicated or mismatched.
	failed int
	// problems describes every failure, for the error report; empty
	// when every requested granule shipped a verified file and nothing
	// else shipped.
	problems []string
}

// checkShipped compares every file in destDir with the reference
// labels. A shipped file belongs to the granule its tiles name; its
// tiles must match the reference tile by tile in position and label.
func checkShipped(destDir string, ref map[int]refFile) (checkResult, error) {
	res := checkResult{verified: map[string]int{}}
	ents, err := os.ReadDir(destDir)
	if err != nil {
		return res, err
	}
	byGranule := make(map[string]int, len(ref))
	for idx, r := range ref {
		byGranule[r.granule] = idx
	}
	seen := map[int]bool{}
	for _, e := range ents {
		if e.IsDir() {
			res.problems = append(res.problems, fmt.Sprintf("unexpected directory %s", e.Name()))
			continue
		}
		idx, err := checkFile(filepath.Join(destDir, e.Name()), ref, byGranule)
		if err != nil {
			res.problems = append(res.problems, fmt.Sprintf("%s: %v", e.Name(), err))
			continue
		}
		if seen[idx] {
			res.problems = append(res.problems, fmt.Sprintf("%s: granule %d shipped twice", e.Name(), idx))
			continue
		}
		seen[idx] = true
		res.verified[e.Name()] = idx
	}
	var missing []int
	for idx := range ref {
		if !seen[idx] {
			missing = append(missing, idx)
		}
	}
	sort.Ints(missing)
	for _, idx := range missing {
		res.problems = append(res.problems, fmt.Sprintf("granule %d: no verified file shipped", idx))
	}
	res.failed = len(missing)
	return res, nil
}

// checkFile verifies one shipped file and returns its granule index.
// byGranule maps the source granule each tile records to its index.
func checkFile(path string, ref map[int]refFile, byGranule map[string]int) (int, error) {
	tiles, err := tile.ReadNetCDF(path)
	if err != nil {
		return 0, err
	}
	if len(tiles) == 0 {
		return 0, fmt.Errorf("no tiles")
	}
	idx, ok := byGranule[tiles[0].Granule]
	if !ok {
		return 0, fmt.Errorf("source granule %q was not requested", tiles[0].Granule)
	}
	want := ref[idx]
	if len(tiles) != len(want.labels) {
		return 0, fmt.Errorf("granule %d: %d tiles, want %d", idx, len(tiles), len(want.labels))
	}
	for i, t := range tiles {
		switch {
		case t.Row != want.rows[i] || t.Col != want.cols[i]:
			return 0, fmt.Errorf("granule %d tile %d at (%d,%d), want (%d,%d)", idx, i, t.Row, t.Col, want.rows[i], want.cols[i])
		case t.Label < 0:
			return 0, fmt.Errorf("granule %d tile %d unlabeled", idx, i)
		case t.Label != want.labels[i]:
			return 0, fmt.Errorf("granule %d tile %d label %d, want %d", idx, i, t.Label, want.labels[i])
		}
	}
	return idx, nil
}
