package fleet

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// cacheFill returns a fill func that writes content at destDir/name and
// counts invocations.
func cacheFill(t *testing.T, destDir, name, content string, calls *atomic.Int64) func(context.Context) (string, error) {
	t.Helper()
	return func(context.Context) (string, error) {
		calls.Add(1)
		path := filepath.Join(destDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return "", err
		}
		return path, nil
	}
}

func TestDownloadCacheHitSkipsFill(t *testing.T) {
	cache, err := NewDownloadCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey{ArchiveURL: "http://archive", Token: "tok", Name: "g1.hdf"}
	var calls atomic.Int64

	dir1 := t.TempDir()
	path, hit, err := cache.Fetch(context.Background(), key, dir1, cacheFill(t, dir1, key.Name, "payload-1", &calls))
	if err != nil || hit {
		t.Fatalf("first fetch: path=%q hit=%v err=%v", path, hit, err)
	}

	dir2 := t.TempDir()
	path, hit, err = cache.Fetch(context.Background(), key, dir2, func(context.Context) (string, error) {
		t.Fatal("fill ran on a warm key")
		return "", nil
	})
	if err != nil || !hit {
		t.Fatalf("second fetch: hit=%v err=%v", hit, err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "payload-1" {
		t.Fatalf("materialized content %q err=%v", got, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("fill ran %d times, want 1", calls.Load())
	}
	hits, misses, _ := cache.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestDownloadCacheKeysSeparateTokens(t *testing.T) {
	cache, err := NewDownloadCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	for i, tok := range []string{"alice", "bob"} {
		dir := t.TempDir()
		key := CacheKey{ArchiveURL: "http://archive", Token: tok, Name: "g.hdf"}
		_, hit, err := cache.Fetch(context.Background(), key, dir, cacheFill(t, dir, key.Name, fmt.Sprintf("tenant-%d", i), &calls))
		if err != nil || hit {
			t.Fatalf("tenant %d: hit=%v err=%v", i, hit, err)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("fill ran %d times, want 2 (distinct tokens must not share entries)", calls.Load())
	}
}

func TestDownloadCacheLRUEviction(t *testing.T) {
	// Budget fits two 8-byte payloads; inserting a third evicts the
	// least recently used.
	cache, err := NewDownloadCache(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fetch := func(name, content string) {
		t.Helper()
		dir := t.TempDir()
		var calls atomic.Int64
		if _, _, err := cache.Fetch(ctx, CacheKey{ArchiveURL: "u", Token: "t", Name: name}, dir, cacheFill(t, dir, name, content, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	fetch("a", "aaaaaaaa")
	fetch("b", "bbbbbbbb")
	// Touch a so b becomes LRU.
	dir := t.TempDir()
	if _, hit, err := cache.Fetch(ctx, CacheKey{ArchiveURL: "u", Token: "t", Name: "a"}, dir, nil); err != nil || !hit {
		t.Fatalf("touch a: hit=%v err=%v", hit, err)
	}
	fetch("c", "cccccccc")

	if got := cache.SizeBytes(); got != 16 {
		t.Fatalf("cache size %d, want 16", got)
	}
	_, _, evictions := cache.Stats()
	if evictions != 1 {
		t.Fatalf("evictions=%d, want 1", evictions)
	}
	// b must refetch; a must still hit.
	var calls atomic.Int64
	dirB := t.TempDir()
	if _, hit, err := cache.Fetch(ctx, CacheKey{ArchiveURL: "u", Token: "t", Name: "b"}, dirB, cacheFill(t, dirB, "b", "bbbbbbbb", &calls)); err != nil || hit {
		t.Fatalf("refetch b: hit=%v err=%v", hit, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("b fill ran %d times, want 1", calls.Load())
	}
}

func TestDownloadCacheCorruptionEvictsAndRefetches(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewDownloadCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := CacheKey{ArchiveURL: "u", Token: "t", Name: "g.hdf"}
	var calls atomic.Int64
	d1 := t.TempDir()
	if _, _, err := cache.Fetch(ctx, key, d1, cacheFill(t, d1, key.Name, "good-bytes", &calls)); err != nil {
		t.Fatal(err)
	}

	// Truncate the cached payload behind the cache's back.
	data := filepath.Join(dir, key.hash()+".granule")
	if err := os.WriteFile(data, []byte("trunc"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := t.TempDir()
	path, hit, err := cache.Fetch(ctx, key, d2, cacheFill(t, d2, key.Name, "good-bytes", &calls))
	if err != nil || hit {
		t.Fatalf("corrupted entry served as hit=%v err=%v", hit, err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "good-bytes" {
		t.Fatalf("refetched content %q", got)
	}
	if calls.Load() != 2 {
		t.Fatalf("fill ran %d times, want 2 (corruption must force a refetch)", calls.Load())
	}
	_, _, evictions := cache.Stats()
	if evictions != 1 {
		t.Fatalf("evictions=%d, want 1", evictions)
	}
	// The repaired entry is trustworthy again.
	d3 := t.TempDir()
	if _, hit, err := cache.Fetch(ctx, key, d3, nil); err != nil || !hit {
		t.Fatalf("post-repair fetch: hit=%v err=%v", hit, err)
	}
}

func TestDownloadCacheSingleflight(t *testing.T) {
	cache, err := NewDownloadCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey{ArchiveURL: "u", Token: "t", Name: "g.hdf"}
	destDir := t.TempDir()
	var calls atomic.Int64
	gate := make(chan struct{})
	fill := func(context.Context) (string, error) {
		calls.Add(1)
		<-gate
		path := filepath.Join(destDir, key.Name)
		if err := os.WriteFile(path, []byte("shared"), 0o644); err != nil {
			return "", err
		}
		return path, nil
	}

	const racers = 8
	var wg sync.WaitGroup
	errs := make([]error, racers)
	started := make(chan struct{}, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			_, _, errs[i] = cache.Fetch(context.Background(), key, destDir, fill)
		}(i)
	}
	for i := 0; i < racers; i++ {
		<-started
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("racer %d: %v", i, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("fill ran %d times under contention, want 1", calls.Load())
	}
}

func TestDownloadCacheRebuildsFromDisk(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewDownloadCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey{ArchiveURL: "u", Token: "t", Name: "g.hdf"}
	var calls atomic.Int64
	d1 := t.TempDir()
	if _, _, err := cache.Fetch(context.Background(), key, d1, cacheFill(t, d1, key.Name, "persisted", &calls)); err != nil {
		t.Fatal(err)
	}

	// A restarted worker reopens the same directory and keeps the warm set.
	reopened, err := NewDownloadCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2 := t.TempDir()
	path, hit, err := reopened.Fetch(context.Background(), key, d2, nil)
	if err != nil || !hit {
		t.Fatalf("fetch after reopen: hit=%v err=%v", hit, err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "persisted" {
		t.Fatalf("content %q after reopen", got)
	}
}

// TestDownloadCacheAdoptsSharedEntry: two workers' caches on one
// directory, both opened before anything was cached. The second cache
// finds the first one's entry on disk, verifies it and serves it
// without a fill.
func TestDownloadCacheAdoptsSharedEntry(t *testing.T) {
	dir := t.TempDir()
	first, err := NewDownloadCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewDownloadCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey{ArchiveURL: "u", Token: "t", Name: "g.hdf"}
	var calls atomic.Int64
	d1 := t.TempDir()
	if _, _, err := first.Fetch(context.Background(), key, d1, cacheFill(t, d1, key.Name, "shared", &calls)); err != nil {
		t.Fatal(err)
	}

	d2 := t.TempDir()
	path, hit, err := second.Fetch(context.Background(), key, d2, cacheFill(t, d2, key.Name, "refetched", &calls))
	if err != nil || !hit {
		t.Fatalf("second cache fetch: hit=%v err=%v", hit, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("fill ran %d times, want 1: the shared entry was refetched", calls.Load())
	}
	got, _ := os.ReadFile(path)
	if string(got) != "shared" {
		t.Fatalf("content %q, want the shared entry", got)
	}
	if hits, misses, _ := second.Stats(); hits != 1 || misses != 0 {
		t.Fatalf("second cache stats hits=%d misses=%d, want 1/0", hits, misses)
	}
	if second.SizeBytes() != int64(len("shared")) {
		t.Fatalf("adopted entry not indexed: size %d", second.SizeBytes())
	}

	// A tampered shared entry is not adopted: the fetch falls through.
	key2 := CacheKey{ArchiveURL: "u", Token: "t", Name: "h.hdf"}
	if _, _, err := first.Fetch(context.Background(), key2, d1, cacheFill(t, d1, key2.Name, "good", &calls)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key2.hash()+".granule"), []byte("evil"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := second.Fetch(context.Background(), key2, d2, cacheFill(t, d2, key2.Name, "good", &calls)); err != nil || hit {
		t.Fatalf("tampered shared entry: hit=%v err=%v, want a refetch", hit, err)
	}
}

func TestResultCacheMemoizesAndEvicts(t *testing.T) {
	rc := NewResultCache(2)
	if _, ok := rc.Get("a"); ok {
		t.Fatal("empty cache returned a value")
	}
	rc.Put("a", 1)
	rc.Put("b", 2)
	if v, ok := rc.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("get a = %v %v", v, ok)
	}
	// b is now LRU; inserting c evicts it.
	rc.Put("c", 3)
	if _, ok := rc.Get("b"); ok {
		t.Fatal("b survived past the bound")
	}
	if v, ok := rc.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("a evicted wrongly: %v %v", v, ok)
	}
	hits, misses, evictions := rc.Stats()
	if hits != 2 || misses != 2 || evictions != 1 {
		t.Fatalf("stats hits=%d misses=%d evictions=%d", hits, misses, evictions)
	}
	rc.Delete("a")
	if _, ok := rc.Get("a"); ok {
		t.Fatal("a survived Delete")
	}
}
