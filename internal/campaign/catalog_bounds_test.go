package campaign

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestCatalogCapacityBound is the acceptance property from the bounded
// rebuild: a capacity-N catalog holds at most N entries no matter how
// many distinct keys are inserted. N must be ≥ 64 for the bound to be
// exact — per-shard capacities floor at one entry, so smaller
// capacities round up (documented on CatalogOptions.Capacity).
func TestCatalogCapacityBound(t *testing.T) {
	for _, capacity := range []int{64, 100, 128, 1000} {
		c := NewCatalogWith(CatalogOptions{Capacity: capacity})
		inserts := 10 * capacity
		for i := 0; i < inserts; i++ {
			c.Record(fmt.Sprintf("A0 V A%d G0", i), "seq", "cat", "job", 0.9)
		}
		if n := c.Len(); n > capacity {
			t.Fatalf("capacity %d: Len = %d after %d inserts, want ≤ %d", capacity, n, inserts, capacity)
		}
		total, _ := c.Stats()
		if total.Misses != uint64(inserts) {
			t.Fatalf("capacity %d: misses = %d, want %d (every key distinct)", capacity, total.Misses, inserts)
		}
		if wantEvict := uint64(inserts - c.Len()); total.Evictions != wantEvict {
			t.Fatalf("capacity %d: evictions = %d, want inserts-live = %d", capacity, total.Evictions, wantEvict)
		}
		if len(c.Entries()) != c.Len() {
			t.Fatalf("capacity %d: Entries/Len disagree: %d vs %d", capacity, len(c.Entries()), c.Len())
		}
	}
}

// TestCatalogLRUEvictionOrder pins which entry a full shard drops: the
// least-recently-recorded one. Targeting a single stripe would need key
// engineering against a random maphash seed, so instead rediscover one
// key after every novel insert while flooding with cold keys — at two
// entries per shard the constantly-refreshed key is never the ring
// tail, so it must survive arbitrarily long past the point its shard
// first filled, while cold keys churn around it.
func TestCatalogLRUEvictionOrder(t *testing.T) {
	c := NewCatalogWith(CatalogOptions{Capacity: 128}) // two entries per shard
	hot := "A0 V G0"
	c.Record(hot, "seq", "cat", "job", 0.5)
	for i := 0; i < 640; i++ {
		c.Record(fmt.Sprintf("A0 A1 V A%d G0", i), "seq", "cat", "job", 0.5)
		if c.Record(hot, "seq", "cat", "job", 0.5) {
			t.Fatalf("hot key evicted after %d cold inserts despite constant rediscovery", i+1)
		}
	}
}

// TestCatalogTTLExpiry drives the sliding TTL through the injectable
// clock: entries vanish from snapshots once stale, a re-record of an
// expired key is novel again (and counts as an eviction), and touching
// a key before expiry slides its deadline forward.
func TestCatalogTTLExpiry(t *testing.T) {
	c := NewCatalogWith(CatalogOptions{TTL: time.Second})
	clock := int64(0)
	c.now = func() int64 { return clock }

	if !c.Record("A0 V G0", "seq", "cat", "job1", 0.9) {
		t.Fatal("first record must be novel")
	}
	clock += int64(500 * time.Millisecond)
	if c.Record("A0 V G0", "seq", "cat", "job2", 0.9) {
		t.Fatal("re-record before TTL must be a rediscovery")
	}
	// The rediscovery slid the deadline: another 800ms (1.3s after the
	// first record, 800ms after the refresh) must still hit.
	clock += int64(800 * time.Millisecond)
	if c.Record("A0 V G0", "seq", "cat", "job3", 0.9) {
		t.Fatal("sliding TTL: record 800ms after a refresh must be a rediscovery")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}

	// Now let it go stale: snapshots drop it, then a re-record is novel.
	clock += int64(time.Second) + 1
	if c.Len() != 0 {
		t.Fatalf("Len = %d after expiry, want 0", c.Len())
	}
	if len(c.Entries()) != 0 {
		t.Fatalf("Entries = %v after expiry, want none", c.Entries())
	}
	if !c.Record("A0 V G0", "seq", "cat", "job4", 0.8) {
		t.Fatal("re-record after expiry must be novel again")
	}
	total, _ := c.Stats()
	if total.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (the expired rebirth)", total.Evictions)
	}
	// The reborn entry starts fresh: count 1, only the new job.
	es := c.Entries()
	if len(es) != 1 || es[0].Count != 1 || len(es[0].Jobs) != 1 || es[0].Jobs[0] != "job4" {
		t.Fatalf("reborn entry = %+v, want fresh count 1 with only job4", es)
	}
}

// TestCatalogJobsRingCap pins the bounded per-entry job list: the first
// catalogJobsKeep producing jobs are kept, later ones only bump Count.
func TestCatalogJobsRingCap(t *testing.T) {
	c := NewCatalog()
	for i := 0; i < 3*catalogJobsKeep; i++ {
		c.Record("A0 V G0", "seq", "cat", fmt.Sprintf("job%d", i), 0.9)
	}
	es := c.Entries()
	if len(es) != 1 {
		t.Fatalf("Len = %d, want 1", len(es))
	}
	if es[0].Count != 3*catalogJobsKeep {
		t.Fatalf("Count = %d, want %d", es[0].Count, 3*catalogJobsKeep)
	}
	if len(es[0].Jobs) != catalogJobsKeep {
		t.Fatalf("Jobs ring holds %d names, want %d", len(es[0].Jobs), catalogJobsKeep)
	}
	for i, j := range es[0].Jobs {
		if want := fmt.Sprintf("job%d", i); j != want {
			t.Fatalf("Jobs[%d] = %q, want %q (first-K in arrival order)", i, j, want)
		}
	}
}

// TestCatalogBoundedConcurrentSweep hammers a bounded TTL catalog from
// many goroutines — novel inserts forcing evictions, rediscoveries of a
// shared hot set, and snapshot readers — so `go test -race` sweeps the
// shard locking of the rebuilt store. Invariants: the capacity bound
// holds at every snapshot, and accounting stays consistent at the end.
func TestCatalogBoundedConcurrentSweep(t *testing.T) {
	const capacity = 128
	c := NewCatalogWith(CatalogOptions{Capacity: capacity, TTL: time.Hour})
	hot := make([]string, 32)
	for i := range hot {
		hot[i] = fmt.Sprintf("A0 V A%d G0", i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				switch rng.Intn(4) {
				case 0: // novel flood
					c.Record(fmt.Sprintf("A0 A1 V A%d-%d G0", g, i), "seq", "cat", "job", rng.Float64())
				case 1, 2: // hot rediscovery
					c.Record(hot[rng.Intn(len(hot))], "seq", "cat", "job", rng.Float64())
				case 3: // snapshot under churn
					if n := c.Len(); n > capacity {
						t.Errorf("Len = %d exceeds capacity %d mid-sweep", n, capacity)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > capacity {
		t.Fatalf("Len = %d exceeds capacity %d", n, capacity)
	}
	total, perShard := c.Stats()
	if total.Hits == 0 || total.Misses == 0 || total.Evictions == 0 {
		t.Fatalf("sweep should produce hits, misses and evictions: %+v", total)
	}
	live := 0
	for _, s := range perShard {
		live += s.Entries
	}
	if live != c.Len() {
		t.Fatalf("per-shard entries %d disagree with Len %d", live, c.Len())
	}
	if total.Misses-total.Evictions != uint64(c.Len()) {
		t.Fatalf("misses %d - evictions %d = %d, want live count %d",
			total.Misses, total.Evictions, total.Misses-total.Evictions, c.Len())
	}
}
