package cache

// prefetcher decides which extra addresses to pull into the cache after a
// demand access. Prefetch fills update replacement state like normal fills
// but are reported separately in Result.Prefetched so the environment can
// annotate traces the way Table IV does ("6(p7)").
type prefetcher interface {
	// after appends the addresses to prefetch following a demand access
	// to a onto dst and returns the extended slice (append-style, so the
	// hot path reuses one scratch buffer instead of allocating).
	after(a Addr, dst []Addr) []Addr
	// reset clears any training state.
	reset()
	// save returns a copy of the mutable training state; load writes it
	// back. Stateless prefetchers save the zero value and ignore a load,
	// so the replay key stays branch-free. Passing pfSnap by value keeps
	// it off the heap.
	save() pfSnap
	load(s pfSnap)
}

// pfSnap is a copy of a prefetcher's mutable training state. Only
// the stream prefetcher has any; the struct is sized for it.
type pfSnap struct {
	last      Addr
	stride    int
	confirmed bool
	primed    bool
}

func newPrefetcher(kind PrefetcherKind, addrSpace int) prefetcher {
	switch kind {
	case NextLine:
		return &nextLinePrefetcher{addrSpace: addrSpace}
	case StreamPrefetch:
		return &streamPrefetcher{addrSpace: addrSpace}
	default:
		return noPrefetcher{}
	}
}

type noPrefetcher struct{}

func (noPrefetcher) after(_ Addr, dst []Addr) []Addr { return dst }
func (noPrefetcher) reset()                          {}
func (noPrefetcher) save() pfSnap                    { return pfSnap{} }
func (noPrefetcher) load(pfSnap)                     {}

// nextLinePrefetcher fetches a+1 after every demand access [64]. The
// successor wraps modulo the configured address space, reproducing the
// paper's config-2 trace where address 7 prefetches 0.
type nextLinePrefetcher struct {
	addrSpace int
}

func (p *nextLinePrefetcher) after(a Addr, dst []Addr) []Addr {
	n := Addr(a + 1)
	if p.addrSpace > 0 {
		n = Addr((int(a) + 1) % p.addrSpace)
	}
	return append(dst, n)
}

func (p *nextLinePrefetcher) reset()       {}
func (p *nextLinePrefetcher) save() pfSnap { return pfSnap{} }
func (p *nextLinePrefetcher) load(pfSnap)  {}

// streamPrefetcher models a simple stream detector [27]: once two
// consecutive accesses repeat the same positive stride, it prefetches one
// stride ahead. This reproduces the paper's config-14 trace where the run
// 4, 6, 8 (stride 2) triggers a prefetch of 10.
type streamPrefetcher struct {
	addrSpace int
	last      Addr
	stride    int
	confirmed bool
	primed    bool
}

func (p *streamPrefetcher) after(a Addr, dst []Addr) []Addr {
	defer func() { p.last = a }()
	if !p.primed {
		p.primed = true
		return dst
	}
	s := int(a) - int(p.last)
	if s > 0 && s == p.stride {
		p.confirmed = true
	} else {
		p.confirmed = false
	}
	p.stride = s
	if !p.confirmed {
		return dst
	}
	n := int(a) + s
	if p.addrSpace > 0 {
		n %= p.addrSpace
	}
	return append(dst, Addr(n))
}

func (p *streamPrefetcher) reset() {
	p.last, p.stride, p.confirmed, p.primed = 0, 0, false, false
}

func (p *streamPrefetcher) save() pfSnap {
	return pfSnap{last: p.last, stride: p.stride, confirmed: p.confirmed, primed: p.primed}
}

func (p *streamPrefetcher) load(s pfSnap) {
	p.last, p.stride, p.confirmed, p.primed = s.last, s.stride, s.confirmed, s.primed
}
