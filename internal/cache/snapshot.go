package cache

import (
	"encoding/binary"

	"autocat/internal/rngstate"
)

// Snapshot is a caller-owned capture of every piece of Cache state that
// can change between Reset and the end of an episode: the flat line
// array, replacement-policy metadata, prefetcher training state, the
// CEASER permutation tables + key epoch + rekey counter, and the RNG
// streams that Access can consume mid-episode.
//
// The telemetry accumulators are deliberately excluded: they count work
// done, so a restore never rewinds them, and counts published between a
// capture and its restore can never be published a second time.
//
// Immutable-after-construction state (the RandomMapping permutation, the
// skew permutation tables when rekeying is off, partition geometry,
// scratch buffers) is deliberately excluded. RNG streams are captured
// only when the configuration can draw from them mid-episode — random
// replacement (c.rng), skew eviction (c.skewRng), CEASER rekeying
// (mapper.rng + perm + epoch) — keeping the common LRU/no-defense
// snapshot a pair of memcpys.
//
// Buffers grow on first use and are reused on every later Snapshot call,
// so steady-state capture and restore are allocation-free.
type Snapshot struct {
	valid bool

	lines  []line
	policy []int
	pf     pfSnap

	rng        rngstate.State // random replacement stream
	skewRng    rngstate.State // skew victim-way stream
	mapperRng  rngstate.State // CEASER key schedule stream
	perm       []int32        // CEASER permutation tables (rekeying only)
	epoch      int
	sinceRekey int
}

// Valid reports whether s holds a captured state.
func (s *Snapshot) Valid() bool { return s.valid }

// Snapshot captures the cache's full mutable state into s, growing s's
// buffers on first use and reusing them afterwards.
func (c *Cache) Snapshot(s *Snapshot) {
	if cap(s.lines) < len(c.lines) {
		s.lines = make([]line, len(c.lines))
	}
	s.lines = s.lines[:len(c.lines)]
	copy(s.lines, c.lines)

	meta := c.policy.metaInts()
	if cap(s.policy) < len(meta) {
		s.policy = make([]int, len(meta))
	}
	s.policy = s.policy[:len(meta)]
	copy(s.policy, meta)

	c.prefetch.save(&s.pf)

	if c.cfg.Policy == Random {
		rngstate.Capture(&s.rng, c.rng)
	}
	if c.skewRng != nil {
		rngstate.Capture(&s.skewRng, c.skewRng)
	}
	if c.mapper != nil && c.rekeyPeriod > 0 {
		rngstate.Capture(&s.mapperRng, c.mapper.rng)
		if cap(s.perm) < len(c.mapper.perm) {
			s.perm = make([]int32, len(c.mapper.perm))
		}
		s.perm = s.perm[:len(c.mapper.perm)]
		copy(s.perm, c.mapper.perm)
		s.epoch = c.mapper.epoch
	}
	s.sinceRekey = c.sinceRekey

	s.valid = true
}

// Restore rewinds the cache to a state previously captured from the same
// cache (or one built from an identical Config). After Restore, the
// cache's observable behaviour — hits, latencies, evictions, rekeys, RNG
// draws — is bit-identical to what it was at capture time. It panics if
// s was never captured or came from a differently-shaped cache.
func (c *Cache) Restore(s *Snapshot) {
	if !s.valid {
		panic("cache: Restore of an empty Snapshot")
	}
	if len(s.lines) != len(c.lines) {
		panic("cache: Restore snapshot shape mismatch")
	}
	copy(c.lines, s.lines)

	meta := c.policy.metaInts()
	if len(s.policy) != len(meta) {
		panic("cache: Restore policy shape mismatch")
	}
	copy(meta, s.policy)

	c.prefetch.load(&s.pf)

	rngstate.Restore(&s.rng, c.rng)
	if c.skewRng != nil {
		rngstate.Restore(&s.skewRng, c.skewRng)
	}
	if c.mapper != nil && c.rekeyPeriod > 0 {
		rngstate.Restore(&s.mapperRng, c.mapper.rng)
		copy(c.mapper.perm, s.perm)
		c.mapper.epoch = s.epoch
	}
	c.sinceRekey = s.sinceRekey
}

// ReplayDeterministic reports whether Reset fully re-arms the cache for a
// bit-identical replay: true when no RNG stream survives Reset with
// consumed state. Random replacement, skew eviction, and active CEASER
// rekeying all advance streams that Reset deliberately preserves (see
// Reset's contract), making episode outcomes history-dependent; search
// strategies that reorder episode evaluation must fall back to
// history-faithful scanning on such configs.
func (c *Cache) ReplayDeterministic() bool {
	return c.cfg.Policy != Random && c.defense != DefenseSkew && c.rekeyPeriod == 0
}

// AppendReplayState appends a compact, lossless encoding of the cache's
// replay state to b and returns the extended slice: the fields Snapshot
// captures minus the RNG streams and the CEASER tables, which never
// change on a ReplayDeterministic cache — every line's valid bit,
// address, domain and lock bit, the policy metadata, the prefetcher's
// training state and the rekey counter, as varints. On such a cache two
// equal encodings behave identically under every later access sequence,
// so the encoding can key a transition table. It allocates nothing when
// b has room.
func (c *Cache) AppendReplayState(b []byte) []byte {
	for _, l := range c.lines {
		b = append(b, flags(l.valid, l.locked))
		b = binary.AppendVarint(b, int64(l.addr))
		b = binary.AppendVarint(b, int64(l.domain))
	}
	for _, m := range c.policy.metaInts() {
		b = binary.AppendVarint(b, int64(m))
	}
	var pf pfSnap
	c.prefetch.save(&pf)
	b = binary.AppendVarint(b, int64(pf.last))
	b = binary.AppendVarint(b, int64(pf.stride))
	b = append(b, flags(pf.confirmed, pf.primed))
	return binary.AppendVarint(b, int64(c.sinceRekey))
}

// LoadReplayState sets the cache's replay state from the front of b, an
// encoding AppendReplayState produced on a cache built from the same
// Config, and returns the rest of b. The RNG streams and CEASER tables
// are left as they are. It panics on a truncated encoding.
func (c *Cache) LoadReplayState(b []byte) []byte {
	var v int64
	for i := range c.lines {
		l := &c.lines[i]
		l.valid, l.locked = b[0]&1 != 0, b[0]&2 != 0
		v, b = readVarint(b[1:])
		l.addr = Addr(v)
		v, b = readVarint(b)
		l.domain = Domain(v)
	}
	meta := c.policy.metaInts()
	for i := range meta {
		v, b = readVarint(b)
		meta[i] = int(v)
	}
	var pf pfSnap
	v, b = readVarint(b)
	pf.last = Addr(v)
	v, b = readVarint(b)
	pf.stride = int(v)
	pf.confirmed, pf.primed = b[0]&1 != 0, b[0]&2 != 0
	c.prefetch.load(&pf)
	v, b = readVarint(b[1:])
	c.sinceRekey = int(v)
	return b
}

// flags packs two bools into the low bits of a byte.
func flags(lo, hi bool) byte {
	var f byte
	if lo {
		f |= 1
	}
	if hi {
		f |= 2
	}
	return f
}

// readVarint decodes one signed varint from the front of b and returns it
// with the rest of b, panicking on a truncated or overlong encoding.
func readVarint(b []byte) (int64, []byte) {
	v, n := binary.Varint(b)
	if n <= 0 {
		panic("cache: malformed replay state")
	}
	return v, b[n:]
}
