package search

import (
	"fmt"
	"strings"

	"autocat/internal/cache"
	"autocat/internal/env"
	"autocat/internal/obs"
)

// walker is the incremental trie walker at the heart of both searches:
// it tracks a current prefix (a path in the non-guess action trie) and,
// per depth, the partition of the secrets still "live" at that node by
// signature-so-far, each live secret held as the id of its state in the
// walker's transition memo.
//
// Live secrets: a secret whose signature-so-far already differs from
// every other secret's can never collide at full length, so it is
// dropped from deeper levels ("singleton skip"). A candidate prefix
// distinguishes all secrets exactly when the live set refines to empty
// at (or before) full length — episode termination cannot fail a
// candidate because the walker is only used when length < MaxSteps, the
// only within-episode termination source on gated configs.
//
// Transition memo: on a replay-deterministic env a secret's next
// signature character and state are a pure function of its state (the
// env's replay key: secret plus cache contents) and the action. Each
// distinct key is interned once, and edges[id*len(pool)+ai] holds the
// child state and signature character of action pool[ai] from state id.
// Only a missing edge runs the simulator: one StepLite on a scratch
// sibling env loaded with the parent state. Steps are counted, not
// executed, so Results match a walker that stepped every secret.
//
// Per-depth buffers are preallocated at construction; with a warm memo,
// descend and evalCandidate are allocation-free.
type walker struct {
	pool   []int
	col    []int // col[a] is action a's index in pool
	length int

	// depth is the current prefix's length. Moving back up the trie is
	// assigning it: per-depth state at and above it stays valid, and
	// descend overwrites the levels below.
	depth int
	path  []int

	// Per depth d in [0,length]: ids[d] holds the state ids of the
	// secrets still undistinguished after the first d actions, cls[d]
	// their signature-equivalence class ids (dense, per depth).
	ids [][]int32
	cls [][]int

	// Refinement scratch: keys[j] is live secret j's new class key (old
	// class id × 3 + signature char index); keyCount and keyID are
	// indexed by key, sized 3 × the secret count.
	keys     []int
	keyCount []int
	keyID    []int

	// The memo: enc[id] is state id's replay key, index its inverse.
	// Its roots are the secrets' post-Reset states.
	secrets []cache.Addr
	enc     []string
	index   map[string]int32
	edges   []edge
	sim     *env.Env // scratch env, the only one the walker steps
	buf     []byte

	steps     int // counted steps: one per live secret per action
	simulated int // StepLite calls run on memo misses
}

// edge is one memo transition.
type edge struct {
	child int32 // child state id + 1; 0 until simulated
	char  int32 // signature char index of the step
}

// memoCap bounds the states one walker interns. Past it the memo is
// rebuilt at the next restart (a shard or batch boundary), which changes
// how many steps are simulated but never a Result. A variable only so
// tests can force rebuilds.
var memoCap = 1 << 16

// newWalker builds a walker rooted at the per-secret reset states, on a
// scratch env built as a sibling of e (e itself is never stepped). The
// caller must have gated on Incremental and length < e.MaxSteps().
func newWalker(e *env.Env, pool []int, length int) *walker {
	sim, err := e.Sibling()
	if err != nil {
		panic(fmt.Sprintf("search: walker on a non-simulator target: %v", err))
	}
	secrets := e.Secrets()
	n := len(secrets)
	w := &walker{
		secrets:  secrets,
		pool:     pool,
		col:      make([]int, e.NumActions()),
		length:   length,
		path:     make([]int, length),
		ids:      make([][]int32, length+1),
		cls:      make([][]int, length+1),
		keys:     make([]int, n),
		keyCount: make([]int, 3*n),
		keyID:    make([]int, 3*n),
		index:    make(map[string]int32),
		sim:      sim,
	}
	for i, a := range pool {
		w.col[a] = i
	}
	for d := 0; d <= length; d++ {
		w.ids[d] = make([]int32, 0, n)
		w.cls[d] = make([]int, 0, n)
	}
	w.restart()
	return w
}

// intern returns the id of the state encoded in b, adding it to the memo
// when it is new.
func (w *walker) intern(b []byte) int32 {
	if id, ok := w.index[string(b)]; ok {
		return id
	}
	id := int32(len(w.enc))
	k := string(b)
	w.index[k] = id
	w.enc = append(w.enc, k)
	w.edges = append(w.edges, make([]edge, len(w.pool))...)
	return id
}

// simulate fills memo edge k, action a from state id, with one StepLite
// on the scratch env.
func (w *walker) simulate(id int32, a, k int) {
	w.buf = append(w.buf[:0], w.enc[id]...)
	w.sim.LoadReplayState(w.buf)
	w.sim.StepLite(a) // one step from step 0 never reaches MaxSteps
	w.simulated++
	c := int32(strings.IndexByte("nhm", w.sim.SignatureChar()))
	w.buf = w.sim.AppendReplayState(w.buf[:0])
	w.edges[k] = edge{child: w.intern(w.buf) + 1, char: c}
}

// restart moves the walker back to the root, as every shard and batch
// starts. A new memo, or one grown past memoCap, is rebuilt there from
// the roots: every secret's post-Reset state. With a single secret the
// root live set stays empty — any prefix distinguishes.
func (w *walker) restart() {
	w.depth = 0
	if len(w.enc) > 0 && len(w.enc) <= memoCap {
		return
	}
	clear(w.index)
	clear(w.enc)
	w.enc, w.edges = w.enc[:0], w.edges[:0]
	w.ids[0], w.cls[0] = w.ids[0][:0], w.cls[0][:0]
	for _, s := range w.secrets {
		w.sim.Reset()
		w.sim.ForceSecret(s)
		w.buf = w.sim.AppendReplayState(w.buf[:0])
		if id := w.intern(w.buf); len(w.secrets) > 1 {
			w.ids[0] = append(w.ids[0], id)
			w.cls[0] = append(w.cls[0], 0)
		}
	}
}

// close publishes the scratch env's cache counts and the simulated step
// count. The env never finishes an episode, so nothing else would before
// it is dropped.
func (w *walker) close() {
	w.sim.FlushTargetObs()
	obs.SearchSimulated.Add(uint64(w.simulated))
}

// descend extends the current prefix with action a: every live secret
// follows its memo edge for a, simulated first if missing, and the live
// partition is refined by the signature characters. It reports whether
// the live set became empty — i.e. every secret pair is distinguished
// and every extension of the new prefix (including itself, at full
// length) is an attack.
func (w *walker) descend(a int) (allSingleton bool) {
	d := w.depth
	ids, cl := w.ids[d], w.cls[d]
	ai := w.col[a]
	for j, id := range ids {
		k := int(id)*len(w.pool) + ai
		if w.edges[k].child == 0 {
			w.simulate(id, a, k)
		}
		w.keys[j] = cl[j]*3 + int(w.edges[k].char)
	}
	w.steps += len(ids)

	// Refine: only keys with two or more members stay live.
	keys := w.keys[:len(ids)]
	for _, k := range keys {
		w.keyCount[k] = 0
		w.keyID[k] = -1
	}
	for _, k := range keys {
		w.keyCount[k]++
	}
	ni, nc := w.ids[d+1][:0], w.cls[d+1][:0]
	next := 0
	for j, k := range keys {
		if w.keyCount[k] < 2 {
			continue
		}
		if w.keyID[k] < 0 {
			w.keyID[k] = next
			next++
		}
		ni = append(ni, w.edges[int(ids[j])*len(w.pool)+ai].child-1)
		nc = append(nc, w.keyID[k])
	}
	w.ids[d+1], w.cls[d+1] = ni, nc
	w.path[d] = a
	w.depth = d + 1
	return len(ni) == 0
}

// attack materializes the lexicographically-first full-length candidate
// under the walker's current position: the current prefix padded with
// the first pool action.
func (w *walker) attack() []int {
	out := append([]int(nil), w.path[:w.depth]...)
	for len(out) < w.length {
		out = append(out, w.pool[0])
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
	span := powClamp(len(w.pool), w.length-d-1)
	for i, a := range w.pool {
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
