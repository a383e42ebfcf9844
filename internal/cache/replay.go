package cache

import "encoding/binary"

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
// replay state to b and returns the extended slice: every field that can
// change mid-episode on a ReplayDeterministic cache — every line's valid
// bit, address, domain and lock bit, the policy metadata, the
// prefetcher's training state and the rekey counter, as varints. The RNG
// streams and CEASER tables never change on such a cache and are left
// out, as are the telemetry accumulators. On such a cache two equal
// encodings behave identically under every later access sequence, so
// the encoding can key a transition table. It allocates nothing when b
// has room.
func (c *Cache) AppendReplayState(b []byte) []byte {
	for _, l := range c.lines {
		b = append(b, flags(l.valid, l.locked))
		b = binary.AppendVarint(b, int64(l.addr))
		b = binary.AppendVarint(b, int64(l.domain))
	}
	for _, m := range c.policy.metaInts() {
		b = binary.AppendVarint(b, int64(m))
	}
	pf := c.prefetch.save()
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
	c.prefetch.load(pf)
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
