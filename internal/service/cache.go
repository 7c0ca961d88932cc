// The content-addressed result cache: an in-memory LRU over result JSON
// bytes keyed by job key, with an optional on-disk layer that survives
// restarts. Disk entries are one file per key, written crash-safe:
// temp file + fsync + atomic rename, so a crash never leaves a
// half-written entry under the final name, and a reader racing the
// rename sees either the old or the new complete entry. Each entry
// wraps the result bytes in a CRC-32C envelope, so corruption —
// truncation, bit flips, zero-length files — is detected by checksum
// rather than by hoping JSON parsing fails; anything that fails the
// checksum or result validation is deleted and treated as a miss,
// never served.
package service

import (
	"container/list"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/multicore"
	"repro/internal/sim"
)

// CacheStats is a snapshot of the cache counters.
type CacheStats struct {
	Hits     uint64 `json:"hits"`      // total hits, memory + disk
	Misses   uint64 `json:"misses"`    // lookups that found nothing usable
	DiskHits uint64 `json:"disk_hits"` // hits served by promoting a disk entry
	Corrupt  uint64 `json:"corrupt"`   // disk entries rejected and removed
	Entries  int    `json:"entries"`   // current in-memory entry count
}

// Cache is safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	dir      string // "" = memory only
	ll       *list.List
	items    map[string]*list.Element
	stats    CacheStats
	inj      *faultinject.Injector // chaos seam for disk I/O; nil in production
	brk      *Breaker              // disk-layer circuit breaker; nil = always closed
}

// SetInjector arms the disk-write chaos seam; a nil injector (the
// default) disarms it.
func (c *Cache) SetInjector(in *faultinject.Injector) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.inj = in
	c.mu.Unlock()
}

// SetBreaker wraps the disk layer in a circuit breaker: while it is
// open, reads and writes skip the disk entirely and the cache serves
// memory-only (degraded mode). A nil breaker — the default — never
// opens. The engine installs its cache breaker here at construction.
func (c *Cache) SetBreaker(b *Breaker) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.brk = b
	c.mu.Unlock()
}

type cacheEntry struct {
	key  string
	data []byte
}

// NewCache returns a cache holding at most capacity entries in memory
// (capacity < 1 is raised to 1), persisting entries under dir when dir
// is non-empty. The directory is created if needed.
func NewCache(capacity int, dir string) (*Cache, error) {
	if capacity < 1 {
		capacity = 1
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: cache dir: %w", err)
		}
	}
	return &Cache{
		capacity: capacity,
		dir:      dir,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}, nil
}

// Get returns the cached result bytes for key. A disk entry is
// validated, promoted into memory, and counted as a (disk) hit; invalid
// disk entries are removed and counted as corrupt misses.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*cacheEntry).data, true
	}
	if data, ok := c.diskGet(key); ok {
		c.put(key, data)
		c.stats.Hits++
		c.stats.DiskHits++
		return data, true
	}
	c.stats.Misses++
	return nil, false
}

// Put stores the result bytes for key in memory (evicting the
// least-recently-used entry beyond capacity) and, if configured, on
// disk. Write errors to disk are ignored: the disk layer is an
// optimization, not a durability guarantee.
func (c *Cache) Put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, data)
	c.diskPut(key, data)
}

func (c *Cache) put(key string, data []byte) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).data = data
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, data: data})
	c.items[key] = el
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// Contains reports whether key is present in memory or on disk,
// without touching the hit/miss counters or the LRU order. Used for
// batch admission control, where a probe is not a lookup.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	_, ok := c.items[key]
	c.mu.Unlock()
	if ok {
		return true
	}
	if c.dir == "" || !isKey(key) || c.brk.State() != BreakerClosed {
		// Degraded mode: the disk cannot be trusted to answer, so batch
		// admission must assume the cell needs computing.
		return false
	}
	_, err := os.Stat(c.path(key))
	return err == nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}

// Len returns the in-memory entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// --- disk layer -----------------------------------------------------------

// diskEnvelope frames a disk entry: the result bytes plus their length
// and CRC-32C. Torn or bit-flipped entries fail the checksum — a much
// stronger detector than "does it still parse as JSON".
type diskEnvelope struct {
	CRC32C uint32          `json:"crc32c"`
	Len    int             `json:"len"`
	Result json.RawMessage `json:"result"`
}

// castagnoli is the CRC-32C polynomial table shared with the journal.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (c *Cache) path(key string) string {
	// Two-character fan-out keeps directories small at scale.
	return filepath.Join(c.dir, key[:2], key+".json")
}

func (c *Cache) diskGet(key string) ([]byte, bool) {
	if c.dir == "" || !isKey(key) {
		return nil, false
	}
	if !c.brk.Allow() {
		return nil, false // degraded: memory-only until the disk recovers
	}
	start := c.inj.Now()
	if err := c.inj.Fire(faultinject.SiteCacheRead); err != nil {
		c.brk.Record(c.inj.Now().Sub(start), err)
		return nil, false
	}
	p := c.path(key)
	blob, err := os.ReadFile(p)
	if err != nil {
		// A missing entry is a healthy miss; any other read error is
		// the disk failing under us.
		if os.IsNotExist(err) {
			c.brk.Record(c.inj.Now().Sub(start), nil)
		} else {
			c.brk.Record(c.inj.Now().Sub(start), err)
		}
		return nil, false
	}
	c.brk.Record(c.inj.Now().Sub(start), nil)
	data, ok := decodeEnvelope(blob)
	if !ok || !validResult(data) {
		c.stats.Corrupt++
		os.Remove(p)
		return nil, false
	}
	return data, true
}

// decodeEnvelope unwraps and checksums one disk entry, reporting false
// for anything damaged: truncated files, zero-length files, bit flips
// (in payload or frame), or pre-envelope legacy entries.
func decodeEnvelope(blob []byte) ([]byte, bool) {
	var env diskEnvelope
	if err := json.Unmarshal(blob, &env); err != nil || env.Result == nil {
		return nil, false
	}
	data := []byte(env.Result)
	if len(data) != env.Len || crc32.Checksum(data, castagnoli) != env.CRC32C {
		return nil, false
	}
	return data, true
}

// encodeEnvelope wraps result bytes for disk. data must be valid JSON
// (it always is: these are marshalled sim results), so embedding it as
// a RawMessage keeps the exact bytes.
func encodeEnvelope(data []byte) ([]byte, error) {
	return json.Marshal(diskEnvelope{
		CRC32C: crc32.Checksum(data, castagnoli),
		Len:    len(data),
		Result: json.RawMessage(data),
	})
}

func (c *Cache) diskPut(key string, data []byte) {
	if c.dir == "" || !isKey(key) {
		return
	}
	if !c.brk.Allow() {
		return // degraded: memory-only until the disk recovers
	}
	blob, err := encodeEnvelope(data)
	if err != nil {
		return
	}
	p := c.path(key)
	start := c.inj.Now()
	record := func(err error) {
		c.brk.Record(c.inj.Now().Sub(start), err)
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		record(err)
		return
	}
	if torn, ferr := c.inj.FireWrite(faultinject.SiteCacheWrite, blob); ferr != nil || len(torn) != len(blob) {
		// Injected fault: ENOSPC drops the write; a torn outcome lands
		// the truncated blob under the final name, as a crash on a
		// non-atomic filesystem would — the checksum must catch it. The
		// breaker sees the error form; a silent tear looked like
		// success to the writer, so it records success.
		if len(torn) != len(blob) {
			os.WriteFile(p, torn, 0o644)
		}
		record(ferr)
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "."+key+".tmp*")
	if err != nil {
		record(err)
		return
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		record(err)
		return
	}
	// fsync before rename: otherwise a power cut can leave the rename
	// durable but the contents not — exactly the torn entry the
	// checksum exists to catch, but better never to create it.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		record(err)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		record(err)
		return
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		record(err)
		return
	}
	record(nil)
}

// validResult reports whether data is a result document the engine
// writes: a cell result with consistent block/temperature vectors (tried
// first, since nearly every entry is one), or a multicore result with one
// per-core entry per core. The two shapes cannot pass for each other: a
// cell's avg_temp_k is a vector, a multicore run's a scalar.
func validResult(data []byte) bool {
	var r sim.Result
	if json.Unmarshal(data, &r) == nil {
		return true
	}
	var mc multicore.Result
	return json.Unmarshal(data, &mc) == nil && mc.Cores > 0 && len(mc.PerCore) == mc.Cores
}
