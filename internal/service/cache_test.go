package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/sim"
)

// fakeResultJSON builds a minimal valid result document distinguishable
// by tag.
func fakeResultJSON(t *testing.T, tag string) []byte {
	t.Helper()
	var r sim.Result
	if err := json.Unmarshal([]byte(`{"benchmark":"`+tag+`","blocks":[],"avg_temp_k":[],"peak_temp_k":[]}`), &r); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func testKey(i int) string {
	return fmt.Sprintf("%064x", i)
}

func TestCacheHitMissAccounting(t *testing.T) {
	c, err := NewCache(4, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(testKey(1), fakeResultJSON(t, "a"))
	if got, ok := c.Get(testKey(1)); !ok || string(got) != string(fakeResultJSON(t, "a")) {
		t.Fatalf("lookup after put: %q, %v", got, ok)
	}
	c.Get(testKey(2)) // miss
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses / 1 entry", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	c.Put(testKey(1), fakeResultJSON(t, "a"))
	c.Put(testKey(2), fakeResultJSON(t, "b"))
	c.Get(testKey(1)) // make key 1 most recent
	c.Put(testKey(3), fakeResultJSON(t, "c"))
	if c.Len() != 2 {
		t.Fatalf("len = %d, want capacity 2", c.Len())
	}
	if _, ok := c.Get(testKey(2)); ok {
		t.Error("least-recently-used entry 2 survived eviction")
	}
	for _, k := range []int{1, 3} {
		if _, ok := c.Get(testKey(k)); !ok {
			t.Errorf("entry %d evicted, want kept", k)
		}
	}
}

func TestCacheDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := fakeResultJSON(t, "persisted")
	c1.Put(testKey(7), want)

	// A fresh cache over the same directory serves the entry from disk.
	c2, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(testKey(7))
	if !ok || string(got) != string(want) {
		t.Fatalf("disk entry: %q, %v", got, ok)
	}
	st := c2.Stats()
	if st.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1", st.DiskHits)
	}
	// Promoted to memory: second lookup is a memory hit, not another
	// disk read.
	if _, ok := c2.Get(testKey(7)); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Hits != 2 {
		t.Errorf("after promotion: %+v", st)
	}
}

func TestCacheCorruptDiskEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(9)
	p := filepath.Join(dir, key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, corrupt := range []string{
		"{truncated",
		`{"blocks":["A"],"avg_temp_k":[],"peak_temp_k":[]}`, // inconsistent vectors
	} {
		if err := os.WriteFile(p, []byte(corrupt), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(key); ok {
			t.Fatalf("corrupted entry %q served as a hit", corrupt)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("corrupted entry %q not removed: %v", corrupt, err)
		}
	}
	st := c.Stats()
	if st.Corrupt != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 corrupt, 0 hits", st)
	}
}

// TestCacheEnvelopedInvalidResultIsMiss: an entry whose checksum holds
// but whose payload is no result the engine writes — a cell result with
// inconsistent vectors, a multicore result missing a core — is removed
// and counted corrupt, like a torn one.
func TestCacheEnvelopedInvalidResultIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(10)
	p := filepath.Join(dir, key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		`{"blocks":["A"],"avg_temp_k":[],"peak_temp_k":[]}`,
		`{"cores":2,"avg_temp_k":300,"per_core":[{"core":0}]}`,
		`{"cores":0,"avg_temp_k":300}`,
	} {
		blob, err := encodeEnvelope([]byte(bad))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(key); ok {
			t.Fatalf("invalid result %s served as a hit", bad)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("invalid result %s not removed: %v", bad, err)
		}
	}
	if st := c.Stats(); st.Corrupt != 3 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 3 corrupt, 0 hits", st)
	}
}

// TestCacheConcurrentAccess exercises the cache from many goroutines;
// the -race CI job runs this.
func TestCacheConcurrentAccess(t *testing.T) {
	c, err := NewCache(8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := fakeResultJSON(t, "x")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := testKey(i % 16)
				if i%2 == 0 {
					c.Put(k, payload)
				} else {
					c.Get(k)
				}
				c.Contains(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("len = %d exceeds capacity", c.Len())
	}
}
