package search

// walker is the incremental trie walker at the heart of both searches:
// it tracks a current prefix (a path in the non-guess action trie) and,
// per depth, the partition of the secrets still "live" at that node by
// signature-so-far, each live secret held as the id of its state in the
// walker's memo slot (memo.go).
//
// Live secrets: a secret whose signature-so-far already differs from
// every other secret's can never collide at full length, so it is
// dropped from deeper levels ("singleton skip"). A candidate prefix
// distinguishes all secrets exactly when the live set refines to empty
// at (or before) full length — episode termination cannot fail a
// candidate because the walker is only used when length < MaxSteps, the
// only within-episode termination source on gated configs.
//
// Each live secret follows its memo edge for the action; only a missing
// edge runs the simulator. Steps are counted, not executed, so Results
// match a walker that stepped every secret.
//
// Per-depth buffers are preallocated at construction; with a warm memo,
// descend and evalCandidate are allocation-free.
type walker struct {
	_      cacheLinePad
	m      *Memo
	slot   *memoSlot
	length int

	// depth is the current prefix's length. Moving back up the trie is
	// assigning it: per-depth state at and above it stays valid, and
	// descend overwrites the levels below.
	depth int
	path  []int32

	// Per depth d in [0,length], the live[d] secrets still
	// undistinguished after the first d actions: their state ids in
	// ids[d·n:] and their signature-equivalence class ids (dense, per
	// depth) in cls[d·n:], n being the secret count. The flat layout
	// holds no pointers, so descend stores none.
	n    int
	live []int32
	ids  []int32
	cls  []int32

	// Refinement scratch, per live secret j: child[j] is its state after
	// the action, keys[j] its new class key (old class id × 3 +
	// signature char index). tag, indexed by key and sized 3n, counts a
	// key's members and then holds -(class id + 1) once one is assigned.
	child []int32
	keys  []int32
	tag   []int32

	steps int // counted steps: one per live secret per action
	_     cacheLinePad
}

// newWalker builds a walker of the given length on memo slot s, at the
// root. The caller must have gated on Incremental and length < MaxSteps.
func newWalker(m *Memo, s *memoSlot, length int) *walker {
	n := len(m.secrets)
	lvl := (length + 1) * n
	// Everything descend writes is carved from one block with a cache
	// line of padding at each end: a search's walkers run on separate
	// cores, and a small allocation sharing a cache line with another
	// walker's would bounce that line between them on every step.
	free := make([]int32, cacheLineInt32s+length+(length+1)+2*lvl+5*n+cacheLineInt32s)[cacheLineInt32s:]
	carve := func(k int) []int32 {
		b := free[:k:k]
		free = free[k:]
		return b
	}
	w := &walker{
		m:      m,
		slot:   s,
		length: length,
		path:   carve(length),
		n:      n,
		live:   carve(length + 1),
		ids:    carve(lvl),
		cls:    carve(lvl),
		child:  carve(n),
		keys:   carve(n),
		tag:    carve(3 * n),
	}
	w.restart()
	return w
}

// restart moves the walker back to the root, as every shard and batch
// starts, readying its slot there. With a single secret the root live
// set stays empty — any prefix distinguishes.
func (w *walker) restart() {
	w.depth = 0
	w.slot.ready(w.m.secrets)
	w.live[0] = 0
	if w.n > 1 {
		w.live[0] = int32(copy(w.ids[:w.n], w.slot.roots))
		clear(w.cls[:w.n])
	}
}

// close publishes the walker's slot's counts: the transitions it
// simulated since the slot last published, and its scratch env's cache
// counts.
func (w *walker) close() { w.slot.publish() }

// descend extends the current prefix with action a: every live secret
// follows its memo edge for a, simulated first if missing, and the live
// partition is refined by the signature characters. It reports whether
// the live set became empty — i.e. every secret pair is distinguished
// and every extension of the new prefix (including itself, at full
// length) is an attack.
func (w *walker) descend(a int) (allSingleton bool) {
	d, n := w.depth, w.n
	live := int(w.live[d])
	ids, cl := w.ids[d*n:d*n+live], w.cls[d*n:d*n+live]
	child, keys := w.child[:live], w.keys[:live]
	s := w.slot
	ai := w.m.col[a]
	for j, id := range ids {
		k := int(id)*s.width + ai
		if s.edges[k].child == 0 {
			s.simulate(id, a, k)
		}
		e := s.edges[k]
		child[j] = e.child - 1
		keys[j] = cl[j]*3 + e.char
		w.tag[keys[j]] = 0
	}
	w.steps += live

	// Refine: only keys with two or more members stay live.
	for _, k := range keys {
		w.tag[k]++
	}
	ni, nc := w.ids[(d+1)*n:(d+2)*n], w.cls[(d+1)*n:(d+2)*n]
	m, next := int32(0), int32(0)
	for j, k := range keys {
		t := w.tag[k]
		if t == 1 {
			continue
		}
		if t > 1 {
			next++
			t = -next
			w.tag[k] = t
		}
		ni[m], nc[m] = child[j], -t-1
		m++
	}
	w.live[d+1] = m
	w.path[d] = int32(a)
	w.depth = d + 1
	return m == 0
}

// attack materializes the lexicographically-first full-length candidate
// under the walker's current position: the current prefix padded with
// the first pool action.
func (w *walker) attack() []int {
	out := make([]int, 0, w.length)
	for _, a := range w.path[:w.depth] {
		out = append(out, int(a))
	}
	for len(out) < w.length {
		out = append(out, w.m.pool[0])
	}
	return out
}

// dfs explores the subtree under the current position in lexicographic
// order. base is the global candidate index of the subtree's first leaf
// and limit the exclusive candidate budget bound. It returns the index
// of the first distinguishing candidate (ok true), or ok false when the
// subtree is exhausted or budget-pruned. abort is polled once per node;
// returning true abandons the subtree (aborted true), used for
// cross-shard cancellation and context checks.
func (w *walker) dfs(base, limit int, abort func() bool) (found int, ok, aborted bool) {
	d := w.depth
	pool := w.m.pool
	span := powClamp(len(pool), w.length-d-1)
	for i, a := range pool {
		cb := satAdd(base, satMul(i, span))
		if cb >= limit {
			return 0, false, false
		}
		if abort != nil && abort() {
			return 0, false, true
		}
		if w.descend(a) {
			return cb, true, false
		}
		if w.depth < w.length {
			if f, ok2, ab := w.dfs(cb, limit, abort); ok2 || ab {
				return f, ok2, ab
			}
		}
		w.depth = d
	}
	return 0, false, false
}

// evalCandidate evaluates candidate j of a batch (candidates row-major
// in cands), restarting at the depth where it diverges from candidate
// j-1 and reusing the prefix they share; candidate 0 follows a restart.
// It reports whether the candidate distinguishes all secrets.
func (w *walker) evalCandidate(cands []int, j int) bool {
	cand := cands[j*w.length : (j+1)*w.length]
	c := 0
	if j > 0 {
		prev := cands[(j-1)*w.length : j*w.length]
		for c < w.length && prev[c] == cand[c] {
			c++
		}
	}
	w.depth = c
	for d := c; d < w.length; d++ {
		if w.descend(cand[d]) {
			return true
		}
	}
	return false
}

// seqCap saturates candidate-index arithmetic: pool^length overflows
// int64 long before any budget reaches it, so indices clamp here.
const seqCap = int(1) << 62

func satAdd(a, b int) int {
	if a >= seqCap-b {
		return seqCap
	}
	return a + b
}

func satMul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a >= seqCap/b {
		return seqCap
	}
	return a * b
}

// powClamp returns p^n clamped to seqCap.
func powClamp(p, n int) int {
	out := 1
	for ; n > 0; n-- {
		out = satMul(out, p)
		if out >= seqCap {
			return seqCap
		}
	}
	return out
}
