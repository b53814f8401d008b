package fleet

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// DownloadCache is a worker-local, content-addressed on-disk cache of
// archive granule files. The fleet ships granule *references*, so every
// re-lease, steal retry, or new run over the same day would otherwise
// re-fetch identical bytes from the archive; the cache makes those hits
// a local disk read instead.
//
// Keying: an entry is addressed by sha256 over (archive URL, sha256 of
// the archive token, file name) — the token participates hashed so two
// tenants with different credentials never share entries and the
// credential itself never appears on disk. Each entry is a pair of
// files under the cache directory, `<key>.granule` (the payload,
// written temp+rename so a crash never leaves a partial entry) and
// `<key>.sha256` (the payload's content hash). Every hit re-verifies
// the content hash; a corrupted or truncated entry is evicted and the
// fetch falls through to the archive.
//
// Size is bounded by LRU eviction, and concurrent fetches of one key
// coalesce: the first caller downloads, the rest wait and read the
// cache (singleflight), so a prefetcher racing the compute slot costs
// one archive fetch, not two.
type DownloadCache struct {
	dir string
	max int64 // byte budget; <=0 means unbounded

	mu sync.Mutex
	// entries maps key hash to its LRU element. guarded by mu
	entries map[string]*list.Element
	// order is the LRU list, most recently used at the front. guarded by mu
	order *list.List
	// total is the summed payload size of all entries. guarded by mu
	total int64
	// inflight coalesces concurrent fetches of one key. guarded by mu
	inflight map[string]*fetchCall

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// cacheEntry is one cached granule file.
type cacheEntry struct {
	key  string
	size int64
}

// fetchCall is one in-flight archive fetch that later callers wait on.
type fetchCall struct {
	done chan struct{}
	err  error
	path string // the filled destination of the leader's call
}

// CacheKey addresses one archive file.
type CacheKey struct {
	ArchiveURL string
	Token      string
	Name       string
}

// hash renders the content address of the key.
func (k CacheKey) hash() string {
	tok := sha256.Sum256([]byte(k.Token))
	h := sha256.New()
	h.Write([]byte(k.ArchiveURL))
	h.Write([]byte{0})
	h.Write(tok[:])
	h.Write([]byte{0})
	h.Write([]byte(k.Name))
	return hex.EncodeToString(h.Sum(nil))
}

// NewDownloadCache opens (or creates) a cache directory and rebuilds
// the LRU index from entries already on disk, oldest first by mtime, so
// a restarted worker keeps its warm set. maxBytes <= 0 disables the
// size bound.
func NewDownloadCache(dir string, maxBytes int64) (*DownloadCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("fleet: download cache needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &DownloadCache{
		dir:      dir,
		max:      maxBytes,
		entries:  map[string]*list.Element{},
		order:    list.New(),
		inflight: map[string]*fetchCall{},
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type onDisk struct {
		key   string
		size  int64
		mtime int64
	}
	var found []onDisk
	for _, e := range ents {
		name := e.Name()
		if filepath.Ext(name) != ".granule" {
			continue
		}
		key := name[:len(name)-len(".granule")]
		info, err := e.Info()
		if err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, key+".sha256")); err != nil {
			// Orphan payload (crash between data rename and sum write):
			// useless without its hash, remove it.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		found = append(found, onDisk{key: key, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	// Oldest first, so the front of the rebuilt LRU is the newest.
	for i := 0; i < len(found); i++ {
		for j := i + 1; j < len(found); j++ {
			if found[j].mtime < found[i].mtime {
				found[i], found[j] = found[j], found[i]
			}
		}
	}
	// No other goroutine can hold c yet, but the *Locked helpers declare
	// the mu invariant, so honor it here too.
	c.mu.Lock()
	for _, f := range found {
		c.entries[f.key] = c.order.PushFront(&cacheEntry{key: f.key, size: f.size})
		c.total += f.size
	}
	c.evictOverBudgetLocked()
	c.mu.Unlock()
	return c, nil
}

// Stats reports lifetime hit/miss/eviction counts.
func (c *DownloadCache) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// SizeBytes reports the summed payload size of resident entries.
func (c *DownloadCache) SizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Fetch materializes the file for key at destDir/<key.Name>. A cache
// hit links (or copies) the verified entry into place without touching
// the archive; a miss runs fill — which must download the file to the
// returned path — and then ingests the result into the cache.
// Concurrent fetches of one key coalesce onto a single fill. Workers may
// share one cache directory: a key missing from this cache's index is
// looked up on disk, and an entry another worker wrote is verified and
// adopted instead of refetched.
//
// The returned hit is true when the bytes came from the cache (including
// coalesced waits on another caller's fill).
func (c *DownloadCache) Fetch(ctx context.Context, key CacheKey, destDir string, fill func(ctx context.Context) (string, error)) (string, bool, error) {
	kh := key.hash()
	dest := filepath.Join(destDir, key.Name)

	for {
		c.mu.Lock()
		if el, ok := c.entries[kh]; ok {
			c.order.MoveToFront(el)
			c.mu.Unlock()
			if err := c.materialize(kh, dest); err == nil {
				c.hits.Add(1)
				return dest, true, nil
			}
			// Corrupted, truncated, or vanished entry: evict and fall
			// through to a real fetch.
			c.remove(kh)
			c.mu.Lock()
		}
		if call, ok := c.inflight[kh]; ok {
			c.mu.Unlock()
			select {
			case <-call.done:
			case <-ctx.Done():
				return "", false, ctx.Err()
			}
			if call.err != nil {
				return "", false, call.err
			}
			if call.path == dest {
				// The leader filled our exact destination.
				c.hits.Add(1)
				return dest, true, nil
			}
			// The leader filled another run's directory; serve ourselves
			// from the entry it ingested (loop re-checks the cache).
			continue
		}
		call := &fetchCall{done: make(chan struct{})}
		c.inflight[kh] = call
		c.mu.Unlock()

		// A worker sharing the directory may have written the entry; the
		// archive is the fallback.
		path, hit := dest, true
		err := c.adopt(kh, dest)
		if err != nil {
			hit = false
			path, err = fill(ctx)
			if err == nil {
				c.ingest(kh, path)
			}
		}
		c.mu.Lock()
		delete(c.inflight, kh)
		c.mu.Unlock()
		call.path, call.err = path, err
		close(call.done)
		if err != nil {
			return "", false, err
		}
		if hit {
			c.hits.Add(1)
		} else {
			c.misses.Add(1)
		}
		return path, hit, nil
	}
}

// materialize links or copies a verified entry to dest. An existing
// dest file is left alone (the kernel's own stat check already accepts
// on-disk inputs).
func (c *DownloadCache) materialize(kh, dest string) error {
	data := filepath.Join(c.dir, kh+".granule")
	wantSum, err := os.ReadFile(filepath.Join(c.dir, kh+".sha256"))
	if err != nil {
		return err
	}
	got, err := hashFile(data)
	if err != nil {
		return err
	}
	if got != string(wantSum) {
		return fmt.Errorf("fleet: cache entry %s content hash mismatch", kh)
	}
	if _, err := os.Stat(dest); err == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(dest), 0o755); err != nil {
		return err
	}
	if err := os.Link(data, dest); err == nil {
		return nil
	}
	// Cross-device or link-hostile filesystem: copy via temp+rename.
	return copyAtomic(data, dest)
}

// adopt serves an entry that is on disk but not in the index — written
// by another worker sharing the directory — and adds it to the LRU. An
// entry without its hash file, or whose hash does not match, is left
// alone: its writer may still be finishing it.
func (c *DownloadCache) adopt(kh, dest string) error {
	info, err := os.Stat(filepath.Join(c.dir, kh+".granule"))
	if err != nil {
		return err
	}
	if err := c.materialize(kh, dest); err != nil {
		return err
	}
	c.mu.Lock()
	if _, ok := c.entries[kh]; !ok {
		c.entries[kh] = c.order.PushFront(&cacheEntry{key: kh, size: info.Size()})
		c.total += info.Size()
		c.evictOverBudgetLocked()
	}
	c.mu.Unlock()
	return nil
}

// ingest copies a freshly downloaded file into the cache under key kh.
// Ingest failures are swallowed: the download itself succeeded and the
// caller has its file; the cache just stays cold for that key.
func (c *DownloadCache) ingest(kh, src string) {
	info, err := os.Stat(src)
	if err != nil {
		return
	}
	if c.max > 0 && info.Size() > c.max {
		return // larger than the whole budget; never cacheable
	}
	data := filepath.Join(c.dir, kh+".granule")
	tmp := data + ".part"
	sum, err := copyHashing(src, tmp)
	if err != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, data); err != nil {
		os.Remove(tmp)
		return
	}
	sumTmp := filepath.Join(c.dir, kh+".sha256.part")
	if err := os.WriteFile(sumTmp, []byte(sum), 0o644); err != nil {
		os.Remove(sumTmp)
		return
	}
	if err := os.Rename(sumTmp, filepath.Join(c.dir, kh+".sha256")); err != nil {
		os.Remove(sumTmp)
		return
	}
	c.mu.Lock()
	if el, ok := c.entries[kh]; ok {
		// Re-ingest of an existing key (concurrent fill): replace size.
		c.total += info.Size() - el.Value.(*cacheEntry).size
		el.Value.(*cacheEntry).size = info.Size()
		c.order.MoveToFront(el)
	} else {
		c.entries[kh] = c.order.PushFront(&cacheEntry{key: kh, size: info.Size()})
		c.total += info.Size()
	}
	c.evictOverBudgetLocked()
	c.mu.Unlock()
}

// remove evicts one entry (bad hash, vanished file).
func (c *DownloadCache) remove(kh string) {
	c.mu.Lock()
	if el, ok := c.entries[kh]; ok {
		c.evictLocked(el)
	}
	c.mu.Unlock()
}

// evictOverBudgetLocked drops least-recently-used entries until the
// budget holds. Caller holds mu.
func (c *DownloadCache) evictOverBudgetLocked() {
	if c.max <= 0 {
		return
	}
	for c.total > c.max {
		back := c.order.Back()
		if back == nil {
			return
		}
		c.evictLocked(back)
	}
}

// evictLocked removes one LRU element and its files. Caller holds mu.
func (c *DownloadCache) evictLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.entries, ent.key)
	c.total -= ent.size
	c.evictions.Add(1)
	os.Remove(filepath.Join(c.dir, ent.key+".granule"))
	os.Remove(filepath.Join(c.dir, ent.key+".sha256"))
}

// hashFile returns the hex sha256 of a file's content.
func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// copyHashing copies src to dst, returning the hex sha256 of the bytes
// written.
func copyHashing(src, dst string) (string, error) {
	in, err := os.Open(src)
	if err != nil {
		return "", err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	_, err = io.Copy(io.MultiWriter(out, h), in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// copyAtomic copies src to dst via temp+rename.
func copyAtomic(src, dst string) error {
	tmp := dst + ".part"
	if _, err := copyHashing(src, tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// ResultCache memoizes completed task results keyed on the task's
// granule-ref identity, bounded LRU. A requeued or stolen task whose
// work already finished on this worker returns the memoized result
// instead of recomputing — the coordinator's exactly-once result
// contract already discards duplicates, so the memo only changes the
// cost of at-least-once execution, never its outcome.
type ResultCache struct {
	max int

	mu sync.Mutex
	// entries maps result key to its LRU element. guarded by mu
	entries map[string]*list.Element
	// order is the LRU list, most recently used at the front. guarded by mu
	order *list.List

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// resultEntry is one memoized result.
type resultEntry struct {
	key string
	val any
}

// NewResultCache builds a memo bounded to max entries (<=0 means a
// default of 1024).
func NewResultCache(max int) *ResultCache {
	if max <= 0 {
		max = 1024
	}
	return &ResultCache{max: max, entries: map[string]*list.Element{}, order: list.New()}
}

// Get returns the memoized result for key, if any.
func (r *ResultCache) Get(key string) (any, bool) {
	r.mu.Lock()
	el, ok := r.entries[key]
	if !ok {
		r.mu.Unlock()
		r.misses.Add(1)
		return nil, false
	}
	r.order.MoveToFront(el)
	v := el.Value.(*resultEntry).val
	r.mu.Unlock()
	r.hits.Add(1)
	return v, true
}

// Put memoizes a completed result.
func (r *ResultCache) Put(key string, v any) {
	r.mu.Lock()
	if el, ok := r.entries[key]; ok {
		el.Value.(*resultEntry).val = v
		r.order.MoveToFront(el)
	} else {
		r.entries[key] = r.order.PushFront(&resultEntry{key: key, val: v})
		for r.order.Len() > r.max {
			back := r.order.Back()
			delete(r.entries, back.Value.(*resultEntry).key)
			r.order.Remove(back)
			r.evictions.Add(1)
		}
	}
	r.mu.Unlock()
}

// Delete drops a stale memo (its on-disk artifact vanished).
func (r *ResultCache) Delete(key string) {
	r.mu.Lock()
	if el, ok := r.entries[key]; ok {
		delete(r.entries, key)
		r.order.Remove(el)
	}
	r.mu.Unlock()
}

// Stats reports lifetime hit/miss/eviction counts.
func (r *ResultCache) Stats() (hits, misses, evictions int64) {
	return r.hits.Load(), r.misses.Load(), r.evictions.Load()
}
