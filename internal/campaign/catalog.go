package campaign

import (
	"hash/maphash"
	"sort"
	"strconv"
	"sync"
	"time"

	"autocat/internal/cache"
	"autocat/internal/env"
	"autocat/internal/obs"
)

// catalogShards is the stripe count of the attack catalog. Power of two
// so the shard index is a mask of the key hash; 64 stripes keep
// contention negligible even with a worker per hardware thread.
const catalogShards = 64

// catalogJobsKeep is the per-entry job-name ring capacity: each entry
// remembers the first catalogJobsKeep jobs that produced it (plus the
// total Count). A fixed-size array keeps the slot layout continuous —
// before the cap, a long-running service accumulating millions of
// rediscoveries would grow every hot entry's job list without bound.
const catalogJobsKeep = 8

// CatalogOptions bounds the in-memory attack catalog. The zero value is
// the unbounded catalog a single campaign run uses; the long-running
// service sets both fields so a catalog holding millions of canonical
// sequences stays bounded while the process lives for weeks.
//
// Bounds are in-memory only: JSONL checkpoints record every job result
// regardless, so resume replays are unaffected by what was evicted.
type CatalogOptions struct {
	// Capacity is the global entry bound; 0 means unbounded. The bound
	// is split across the 64 shards (each shard holds at least one
	// entry, so capacities below 64 are effectively rounded up to one
	// entry per touched shard). When a shard is full, inserting a novel
	// attack evicts that shard's least-recently-recorded entry.
	Capacity int
	// TTL is the sliding per-entry lifetime: an entry not recorded
	// (hit or miss) for longer than TTL counts as evicted — snapshots
	// skip it, and the next rediscovery of its key is novel again.
	// Expiry is lazy, in the phuslu/lru idiom: expired entries are
	// reclaimed when their key is touched or their slot is needed, not
	// by a background sweeper. 0 disables expiry.
	TTL time.Duration
}

// Entry is one deduplicated attack in the catalog: a canonical sequence
// plus aggregate statistics over every job that rediscovered it.
type Entry struct {
	// Key is the canonicalized attack sequence (see Canonicalize).
	Key string `json:"key"`
	// Sequence is the first concrete sequence observed for the key, in
	// the paper's arrow notation.
	Sequence string `json:"sequence"`
	// Category is the Table I classification of the first observation.
	Category string `json:"category"`
	// Count is the number of jobs that produced this attack.
	Count int `json:"count"`
	// Jobs lists the names of the first few jobs that produced it, in
	// arrival order, capped at catalogJobsKeep; Count keeps the full
	// total.
	Jobs []string `json:"jobs"`
	// BestAccuracy is the highest greedy accuracy any producing job
	// achieved.
	BestAccuracy float64 `json:"best_accuracy"`
}

// ShardStats reports one stripe's dedup statistics: a hit is an insert
// that found its key already present (a rediscovered attack), a miss is
// an insert that created a new entry (a novel attack), an eviction is an
// entry dropped to capacity pressure or TTL expiry.
type ShardStats struct {
	Entries   int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// slot is one catalog entry inside a shard's continuous slot array.
// Entries are linked into a recency ring by uint32 indexes into the
// same array (slot 0 is the ring sentinel) — the phuslu/lru idiom of
// index-linked, continuous-memory storage instead of a pointer-chased
// container/list, so the GC scans one slice header per shard rather
// than millions of list nodes.
type slot struct {
	key      string
	sequence string
	category string
	count    int
	best     float64
	// expires is the unix-nano deadline after which the entry is dead
	// (sliding: refreshed on every record); 0 means no TTL.
	expires int64
	jobsLen uint8
	jobs    [catalogJobsKeep]string
	// prev/next link the shard's recency ring, most recent at
	// sentinel.next, eviction victim at sentinel.prev.
	prev, next uint32
}

// catalogShard is one mutex-striped partition: a key→slot-index table
// plus the slot array holding the entries themselves.
type catalogShard struct {
	mu        sync.Mutex
	table     map[string]uint32
	slots     []slot // slots[0] is the recency-ring sentinel
	cap       int    // max live entries; 0 = unbounded
	hits      uint64
	misses    uint64
	evictions uint64
}

// Catalog is the concurrency-safe deduplicating attack store. Keys are
// canonicalized attack sequences; values aggregate every job that
// produced the same canonical attack. With CatalogOptions bounds it is
// an LRU/TTL cache over those attacks: memory stays bounded, and the
// rediscovery fast path (Record on a present key) allocates nothing.
type Catalog struct {
	seed   maphash.Seed
	opts   CatalogOptions
	now    func() int64 // injectable clock for TTL tests
	shards [catalogShards]catalogShard
}

// NewCatalog returns an empty, unbounded catalog.
func NewCatalog() *Catalog { return NewCatalogWith(CatalogOptions{}) }

// NewCatalogWith returns an empty catalog with the given memory bounds.
func NewCatalogWith(opts CatalogOptions) *Catalog {
	c := &Catalog{
		seed: maphash.MakeSeed(),
		opts: opts,
		now:  func() int64 { return time.Now().UnixNano() },
	}
	base, rem := 0, 0
	if opts.Capacity > 0 {
		base, rem = opts.Capacity/catalogShards, opts.Capacity%catalogShards
	}
	for i := range c.shards {
		s := &c.shards[i]
		if opts.Capacity > 0 {
			s.cap = base
			if i < rem {
				s.cap++
			}
			if s.cap == 0 {
				s.cap = 1
			}
		}
		hint := s.cap
		if hint == 0 {
			hint = 8
		}
		s.table = make(map[string]uint32, hint)
		// Bounded shards preallocate their whole slot array so steady
		// state (insert/evict churn at capacity) never reallocates;
		// slot 0 is the ring sentinel, self-linked by its zero value.
		s.slots = make([]slot, 1, hint+1)
	}
	return c
}

// Options returns the catalog's memory bounds.
func (c *Catalog) Options() CatalogOptions { return c.opts }

// Record inserts one attack observation and reports whether it was
// novel (first time the canonical key was seen — or seen again after
// the entry holding it was evicted or expired).
func (c *Catalog) Record(key, sequence, category, job string, accuracy float64) (novel bool) {
	s := &c.shards[maphash.String(c.seed, key)&(catalogShards-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.table[key]; ok {
		return c.recordHit(s, i, sequence, category, job, accuracy)
	}
	c.recordMiss(s, key, sequence, category, job, accuracy)
	return true
}

// recordHit folds a rediscovery into the entry at slot i; the shard
// mutex must be held. An entry past its TTL is logically gone already:
// the record re-creates it in place and reports novel, exactly as if
// the slot had been reclaimed between the two observations.
func (c *Catalog) recordHit(s *catalogShard, i uint32, sequence, category, job string, accuracy float64) (novel bool) {
	e := &s.slots[i]
	if c.opts.TTL > 0 {
		now := c.now()
		if now > e.expires {
			s.evictions++
			obs.CatalogEvictions.Inc()
			s.misses++
			obs.CatalogNovel.Inc()
			e.sequence, e.category = sequence, category
			e.count, e.best = 1, accuracy
			e.jobs[0], e.jobsLen = job, 1
			for j := 1; j < catalogJobsKeep; j++ {
				e.jobs[j] = ""
			}
			e.expires = now + int64(c.opts.TTL)
			s.moveToFront(i)
			return true
		}
		e.expires = now + int64(c.opts.TTL) // sliding refresh
	}
	s.hits++
	obs.CatalogRediscoveries.Inc()
	e.count++
	if e.jobsLen < catalogJobsKeep {
		e.jobs[e.jobsLen] = job
		e.jobsLen++
	}
	if accuracy > e.best {
		e.best = accuracy
	}
	s.moveToFront(i)
	return false
}

// recordMiss inserts a novel attack; the shard mutex must be held. A
// full shard evicts its least-recently-recorded entry and reuses the
// slot in place, so bounded catalogs never grow their arrays after the
// initial fill.
func (c *Catalog) recordMiss(s *catalogShard, key, sequence, category, job string, accuracy float64) {
	s.misses++
	obs.CatalogNovel.Inc()
	var i uint32
	if s.cap > 0 && len(s.table) >= s.cap {
		i = s.slots[0].prev // recency-ring tail = LRU victim
		delete(s.table, s.slots[i].key)
		s.unlink(i)
		s.evictions++
		obs.CatalogEvictions.Inc()
	} else {
		s.slots = append(s.slots, slot{})
		i = uint32(len(s.slots) - 1)
	}
	e := &s.slots[i]
	*e = slot{key: key, sequence: sequence, category: category, count: 1, best: accuracy}
	e.jobs[0], e.jobsLen = job, 1
	if c.opts.TTL > 0 {
		e.expires = c.now() + int64(c.opts.TTL)
	}
	s.table[key] = i
	s.pushFront(i)
}

// pushFront links slot i at the recency-ring head; the shard mutex must
// be held and i must be unlinked.
func (s *catalogShard) pushFront(i uint32) {
	head := s.slots[0].next
	s.slots[i].prev, s.slots[i].next = 0, head
	s.slots[head].prev = i
	s.slots[0].next = i
}

// unlink removes slot i from the recency ring; the shard mutex must be
// held.
func (s *catalogShard) unlink(i uint32) {
	p, n := s.slots[i].prev, s.slots[i].next
	s.slots[p].next = n
	s.slots[n].prev = p
}

// moveToFront marks slot i most recently recorded; the shard mutex must
// be held.
func (s *catalogShard) moveToFront(i uint32) {
	if s.slots[0].next == i {
		return
	}
	s.unlink(i)
	s.pushFront(i)
}

// expired reports whether slot e is past its TTL at time now (0 when
// TTL is disabled — never expired).
func expired(e *slot, now int64) bool { return now != 0 && now > e.expires }

// snapshotNow returns the clock value snapshots compare expiry against,
// or 0 when TTL is disabled.
func (c *Catalog) snapshotNow() int64 {
	if c.opts.TTL <= 0 {
		return 0
	}
	return c.now()
}

// Len returns the number of distinct live attacks (expired entries not
// yet reclaimed are excluded).
func (c *Catalog) Len() int {
	now := c.snapshotNow()
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		if now == 0 {
			n += len(s.table)
		} else {
			for j := s.slots[0].next; j != 0; j = s.slots[j].next {
				if !expired(&s.slots[j], now) {
					n++
				}
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Entries returns a deep-copied snapshot of the live entries sorted by
// rediscovery count (descending) then key, so summaries are
// deterministic.
func (c *Catalog) Entries() []Entry {
	now := c.snapshotNow()
	var out []Entry
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for j := s.slots[0].next; j != 0; j = s.slots[j].next {
			e := &s.slots[j]
			if expired(e, now) {
				continue
			}
			out = append(out, Entry{
				Key:          e.key,
				Sequence:     e.sequence,
				Category:     e.category,
				Count:        e.count,
				Jobs:         append([]string(nil), e.jobs[:e.jobsLen]...),
				BestAccuracy: e.best,
			})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Stats returns per-shard dedup statistics plus the aggregate; the
// aggregate hit count is the number of rediscovered attacks across the
// campaign, the eviction count the number of entries dropped to
// capacity or TTL pressure.
func (c *Catalog) Stats() (total ShardStats, perShard []ShardStats) {
	now := c.snapshotNow()
	perShard = make([]ShardStats, catalogShards)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		live := len(s.table)
		if now != 0 {
			live = 0
			for j := s.slots[0].next; j != 0; j = s.slots[j].next {
				if !expired(&s.slots[j], now) {
					live++
				}
			}
		}
		perShard[i] = ShardStats{Entries: live, Hits: s.hits, Misses: s.misses, Evictions: s.evictions}
		s.mu.Unlock()
		total.Entries += perShard[i].Entries
		total.Hits += perShard[i].Hits
		total.Misses += perShard[i].Misses
		total.Evictions += perShard[i].Evictions
	}
	return total, perShard
}

// Canonicalize renders an attack sequence in a configuration-independent
// normal form so equivalent attacks found under different address
// layouts deduplicate: attacker addresses are relabelled in order of
// first appearance, guesses are expressed as offsets into the victim
// range, and the victim trigger and no-access guess keep fixed symbols.
// Addresses the attacker shares with the victim's range carry an "s"
// suffix — whether a probe can reload the victim's own line (the
// flush/evict+reload family) or only conflict with it (prime+probe) is
// part of the attack's identity, so sequences that differ in it must
// not collide. The paper's "7→4→5→v→7→5→4→g0" and the same attack
// found at "0→1→2→v→0→2→1→g4" both canonicalize to
// "A0 A1 A2 V A0 A2 A1 G0".
func Canonicalize(e *env.Env, actions []int) string {
	cfg := e.Config()
	rename := map[cache.Addr]int{}
	var b []byte
	label := func(a cache.Addr) {
		n, ok := rename[a]
		if !ok {
			n = len(rename)
			rename[a] = n
		}
		b = strconv.AppendInt(b, int64(n), 10)
		if a >= cfg.VictimLo && a <= cfg.VictimHi {
			b = append(b, 's')
		}
	}
	for i, act := range actions {
		if i > 0 {
			b = append(b, ' ')
		}
		kind, addr := e.DecodeAction(act)
		switch kind {
		case env.KindAccess:
			b = append(b, 'A')
			label(addr)
		case env.KindFlush:
			b = append(b, 'F')
			label(addr)
		case env.KindVictim:
			b = append(b, 'V')
		case env.KindGuess:
			b = append(b, 'G')
			b = strconv.AppendInt(b, int64(addr-cfg.VictimLo), 10)
		case env.KindGuessNone:
			b = append(b, 'G', 'E')
		}
	}
	return string(b)
}
