package hw

import (
	"testing"

	"autocat/internal/cache"
	"autocat/internal/env"
	"autocat/internal/obs"
)

func TestSpecsCoverTableIII(t *testing.T) {
	specs := Table3Specs()
	if len(specs) != 7 {
		t.Fatalf("Table III has 7 rows, got %d", len(specs))
	}
	l1 := 0
	for _, s := range specs {
		if s.Level == "L1" {
			l1++
			if s.Policy != cache.PLRU {
				t.Fatalf("L1 rows are documented tree-PLRU, got %v", s.Policy)
			}
			if s.Ways != 8 {
				t.Fatalf("L1 rows are 8-way, got %d", s.Ways)
			}
		}
	}
	if l1 != 2 {
		t.Fatalf("expected 2 L1 rows, got %d", l1)
	}
	for _, s := range SmallSpecs() {
		if s.Ways > 4 {
			t.Fatalf("SmallSpecs leaked a %d-way row", s.Ways)
		}
	}
}

func TestBlackBoxBehavesLikeCache(t *testing.T) {
	spec := Spec{CPU: "test", Level: "L2", Ways: 4, Policy: cache.RRIP}
	b, err := NewBlackBox(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Access(0, cache.DomainAttacker).Hit {
		t.Fatal("cold access should miss")
	}
	if !b.Access(0, cache.DomainAttacker).Hit {
		t.Fatal("warm access should hit")
	}
	b.Reset()
	if b.Access(0, cache.DomainAttacker).Hit {
		t.Fatal("access after reset should miss")
	}
	if !b.Flush(0) {
		t.Fatal("flush should find the line")
	}
	if b.SetOf(3) != 0 {
		t.Fatal("CacheQuery boxes expose one set")
	}
}

func TestBlackBoxNoiseFlipsObservations(t *testing.T) {
	spec := Spec{CPU: "noisy", Level: "L1", Ways: 4, Policy: cache.LRU, NoiseFlip: 0.2}
	b, err := NewBlackBox(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	b.Access(0, cache.DomainAttacker)
	flips := 0
	for i := 0; i < 500; i++ {
		// Address 0 is genuinely resident; a miss report is a flip.
		if !b.Access(0, cache.DomainAttacker).Hit {
			flips++
		}
	}
	if flips < 50 || flips > 150 {
		t.Fatalf("flip count %d/500 outside the 20%% noise band", flips)
	}
}

func TestBlackBoxRejectsBadSpec(t *testing.T) {
	if _, err := NewBlackBox(Spec{Ways: 0}, 1); err == nil {
		t.Fatal("zero ways must error")
	}
	if _, err := NewBlackBox(Spec{Ways: 3, Policy: cache.PLRU}, 1); err == nil {
		t.Fatal("3-way PLRU must error")
	}
}

func TestQueryBatch(t *testing.T) {
	spec := Spec{CPU: "test", Level: "L2", Ways: 4, Policy: cache.LRU}
	b, err := NewBlackBox(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	lat := b.Query([]Op{
		{Addr: 0, Timed: false},
		{Addr: 1, Timed: false},
		{Addr: 0, Timed: true}, // warm: hit
		{Addr: 2, Timed: true}, // cold: miss
	})
	if len(lat) != 2 {
		t.Fatalf("expected 2 timed results, got %d", len(lat))
	}
	if lat[0] >= lat[1] {
		t.Fatalf("hit latency %d should undercut miss latency %d", lat[0], lat[1])
	}
}

func TestHiddenPoliciesDiffer(t *testing.T) {
	// The RRIP-modelled "N.O.D." levels must behave differently from
	// textbook LRU: fill a 4-way set, touch all but one line, insert.
	mk := func(pol cache.PolicyKind) cache.Addr {
		b, _ := NewBlackBox(Spec{CPU: "x", Level: "L2", Ways: 4, Policy: pol}, 4)
		for a := cache.Addr(0); a < 4; a++ {
			b.Access(a, cache.DomainAttacker)
		}
		// Touch 1, 2, 3 — under LRU this protects them; under RRIP it
		// promotes them to RRPV 0, leaving 0 at the insert value.
		for a := cache.Addr(1); a < 4; a++ {
			b.Access(a, cache.DomainAttacker)
		}
		r := b.Access(9, cache.DomainAttacker)
		if len(r.Evictions) != 1 {
			t.Fatalf("expected one eviction, got %+v", r.Evictions)
		}
		return r.Evictions[0].EvictedAddr
	}
	// Both evict 0 here; distinguish with a second insertion round.
	b, _ := NewBlackBox(Spec{CPU: "x", Level: "L2", Ways: 4, Policy: cache.RRIP}, 5)
	for a := cache.Addr(0); a < 4; a++ {
		b.Access(a, cache.DomainAttacker)
	}
	b.Access(9, cache.DomainAttacker) // miss: RRIP inserts 9 at RRPV 2
	r := b.Access(10, cache.DomainAttacker)
	// Under RRIP the freshly inserted 9 is as evictable as the aged
	// lines; under LRU 9 would be MRU and safe. RRIP's aging sweep makes
	// a line other than the LRU-predicted one eligible.
	if len(r.Evictions) != 1 {
		t.Fatalf("expected one eviction, got %+v", r.Evictions)
	}
	_ = mk(cache.LRU)
	_ = mk(cache.RRIP)
}

// TestBlackBoxPublishesCountsPerEpisode checks the box takes part in the
// env's episode-completion telemetry flush.
func TestBlackBoxPublishesCountsPerEpisode(t *testing.T) {
	b, err := NewBlackBox(Spec{CPU: "test", Level: "L1", Ways: 4, Policy: cache.LRU}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := env.Target(b).(env.ObsFlusher); !ok {
		t.Fatal("BlackBox must implement env.ObsFlusher")
	}
	e, err := env.New(env.Config{
		Target:     b,
		AttackerLo: 4, AttackerHi: 7,
		VictimLo: 0, VictimHi: 0,
		Warmup: -1,
		Seed:   6,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := obs.CacheAccesses.Load()
	e.Reset()
	e.Step(e.AccessAction(4))
	e.Step(e.VictimAction())
	if got := obs.CacheAccesses.Load() - before; got != 0 {
		t.Fatalf("mid-episode publish of %d accesses, want 0", got)
	}
	e.Step(e.GuessAction(0))
	if got := obs.CacheAccesses.Load() - before; got != 2 {
		t.Fatalf("completed episode published %d accesses, want 2", got)
	}
}
