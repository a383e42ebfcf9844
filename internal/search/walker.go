package search

import (
	"fmt"

	"autocat/internal/env"
)

// walker is the incremental trie walker at the heart of both searches:
// it tracks a current prefix (a path in the non-guess action trie) and
// one resident env per secret, plus, per depth, the partition of the
// secrets still "live" at that node by signature-so-far. Extending the
// prefix steps every live secret's env once, in place; an env is only
// rewound (restored from a per-depth snapshot) when the walk moves back
// up the trie past where that env sits.
//
// Live secrets: a secret whose signature-so-far already differs from
// every other secret's can never collide at full length, so it is
// dropped from deeper levels ("singleton skip"). A candidate prefix
// distinguishes all secrets exactly when the live set refines to empty
// at (or before) full length — episode termination cannot fail a
// candidate because the walker is only used when length < MaxSteps, the
// only within-episode termination source on gated configs.
//
// Snapshots are taken on arrival at a depth only where a later move will
// restart from it: at every internal node of the exhaustive DFS, and at
// the depths a random batch's snapshot plan names (planBatch).
//
// All per-depth and per-batch buffers are preallocated at construction;
// descend, truncate and evalCandidate are allocation-free in steady
// state.
type walker struct {
	envs   []*env.Env // resident env per secret index
	pool   []int
	length int

	depth int
	path  []int

	// at[s] is the depth envs[s] sits at on the current path, or -1 when
	// the path moved off its branch and it must restore before stepping.
	at []int

	// Per depth d in [0,length]: live[d] holds the indices of secrets
	// still undistinguished after the first d actions, cls[d] their
	// signature-equivalence class ids (dense, per depth). snaps[d] is
	// indexed by secret index; snapNode[d][s] names the node snaps[d][s]
	// was taken at, node[d] the current path's node at depth d, so a
	// restore of a snapshot from another branch is caught.
	live     [][]int
	cls      [][]int
	snaps    [][]env.Snapshot
	snapNode [][]int
	node     []int
	nodes    int // node ids handed out so far

	// Refinement scratch: keys[j] is live secret j's new class key (old
	// class id × 3 + signature char index); keyCount and keyID are
	// indexed by key, sized 3 × the secret count.
	keys     []int
	keyCount []int
	keyID    []int

	// Random-batch snapshot plan: cut[k] is the depth where the batch's
	// candidate k diverges from candidate k-1 (cut[0] is 0), and the
	// candidate being evaluated snapshots at depth d when plan[d] == gen.
	cut  []int
	plan []int
	gen  int

	steps int // StepLite calls executed so far
}

// newWalker builds a walker rooted at the per-secret reset states, on
// resident envs built as siblings of e (e itself is never stepped). The
// caller must have gated on incrementalOK and length < e.MaxSteps().
func newWalker(e *env.Env, pool []int, length int) *walker {
	secrets := e.Secrets()
	n := len(secrets)
	w := &walker{
		envs:     make([]*env.Env, n),
		pool:     pool,
		length:   length,
		path:     make([]int, length),
		at:       make([]int, n),
		live:     make([][]int, length+1),
		cls:      make([][]int, length+1),
		snaps:    make([][]env.Snapshot, length+1),
		snapNode: make([][]int, length+1),
		node:     make([]int, length+1),
		keys:     make([]int, n),
		keyCount: make([]int, 3*n),
		keyID:    make([]int, 3*n),
		cut:      make([]int, 0, randBatchSize),
		plan:     make([]int, length+1),
	}
	for d := 0; d <= length; d++ {
		w.live[d] = make([]int, 0, n)
		w.cls[d] = make([]int, 0, n)
		w.snaps[d] = make([]env.Snapshot, n)
		w.snapNode[d] = make([]int, n)
	}
	// Root: every secret's post-Reset state. With a single secret the
	// root live set is already empty — any prefix distinguishes.
	for i, s := range secrets {
		se, err := e.Sibling()
		if err != nil {
			panic(fmt.Sprintf("search: walker on a non-simulator target: %v", err))
		}
		se.Reset()
		se.ForceSecret(s)
		se.SnapshotLiteInto(&w.snaps[0][i])
		w.envs[i] = se
		if n > 1 {
			w.live[0] = append(w.live[0], i)
			w.cls[0] = append(w.cls[0], 0)
		}
	}
	return w
}

// close publishes the resident envs' cache counts. The envs never finish
// an episode, so nothing else would before they are dropped.
func (w *walker) close() {
	for _, e := range w.envs {
		e.FlushTargetObs()
	}
}

// truncate rewinds the walker's current prefix to depth d. Per-depth
// state at and above d stays valid; envs that sat deeper are off the
// path now, and deeper levels are overwritten by the next descend calls.
func (w *walker) truncate(d int) {
	for s, a := range w.at {
		if a > d {
			w.at[s] = -1
		}
	}
	w.depth = d
}

// descend extends the current prefix with action a: every live secret's
// env is restored to the current node if it left it, stepped once,
// snapshotted on arrival when snap is set (a later move restarts from
// the child), and the live partition is refined by the observed
// signature characters. It reports whether the live set became empty —
// i.e. every secret pair is distinguished and every extension of the new
// prefix (including itself, at full length) is an attack.
func (w *walker) descend(a int, snap bool) (allSingleton bool) {
	d := w.depth
	lv, cl := w.live[d], w.cls[d]
	w.nodes++
	w.node[d+1] = w.nodes
	for j, s := range lv {
		e := w.envs[s]
		if w.at[s] != d {
			if w.snapNode[d][s] != w.node[d] {
				panic(fmt.Sprintf("search: secret %d must restore at depth %d but has no snapshot there", s, d))
			}
			e.RestoreFrom(&w.snaps[d][s])
		}
		if _, done := e.StepLite(a); done {
			panic(fmt.Sprintf("search: episode ended at depth %d despite length %d < MaxSteps gate", d+1, w.length))
		}
		w.steps++
		w.at[s] = d + 1
		w.keys[j] = cl[j]*3 + charIdx(e.SignatureChar())
		if snap {
			e.SnapshotLiteInto(&w.snaps[d+1][s])
			w.snapNode[d+1][s] = w.nodes
		}
	}

	// Refine: only keys with two or more members stay live.
	keys := w.keys[:len(lv)]
	for _, k := range keys {
		w.keyCount[k] = 0
		w.keyID[k] = -1
	}
	for _, k := range keys {
		w.keyCount[k]++
	}
	nl, nc := w.live[d+1][:0], w.cls[d+1][:0]
	next := 0
	for j, s := range lv {
		k := keys[j]
		if w.keyCount[k] < 2 {
			continue
		}
		if w.keyID[k] < 0 {
			w.keyID[k] = next
			next++
		}
		nl = append(nl, s)
		nc = append(nc, w.keyID[k])
	}
	w.live[d+1], w.cls[d+1] = nl, nc
	w.path[d] = a
	w.depth = d + 1
	return len(nl) == 0
}

func charIdx(c byte) int {
	switch c {
	case 'h':
		return 1
	case 'm':
		return 2
	default:
		return 0
	}
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
		if w.descend(a, w.depth+1 < w.length) {
			return cb, true, false
		}
		if w.depth < w.length {
			if f, ok2, ab := w.dfs(cb, limit, abort); ok2 || ab {
				return f, ok2, ab
			}
		}
		w.truncate(d)
	}
	return 0, false, false
}

// planBatch prepares a random batch (candidates row-major in cands) for
// evalCandidate: it records the depth cut[k] where candidate k diverges
// from candidate k-1, which is where candidate k restarts. The batch is
// the memo scope, so candidate 0 restarts at the root.
func (w *walker) planBatch(cands []int) {
	n := len(cands) / w.length
	w.cut = w.cut[:n]
	for k := range w.cut {
		c := 0
		if k > 0 {
			prev, cur := cands[(k-1)*w.length:k*w.length], cands[k*w.length:(k+1)*w.length]
			for c < w.length && prev[c] == cur[c] {
				c++
			}
		}
		w.cut[k] = c
	}
	w.truncate(0)
}

// evalCandidate evaluates candidate j of the batch last given to
// planBatch, reusing the prefix it shares with candidate j-1. It reports
// whether the candidate distinguishes all secrets.
//
// Candidate j restarts at cut[j] and creates the path's nodes below it,
// so it snapshots at depth cut[k] for every later candidate k that
// restarts there before any candidate in between left the shared
// prefix: cut[k] > cut[j] and cut[k] <= min(cut[j+1..k-1]). The scan
// ends at the first cut[k] <= cut[j], past which no later restart lies
// below candidate j's nodes.
func (w *walker) evalCandidate(cands []int, j int) bool {
	cand := cands[j*w.length : (j+1)*w.length]
	c := w.cut[j]
	w.gen++
	lo := w.length
	for k := j + 1; k < len(w.cut); k++ {
		ck := w.cut[k]
		if ck <= c {
			break
		}
		if ck < lo {
			w.plan[ck] = w.gen
			lo = ck
		}
	}
	w.truncate(c)
	for d := c; d < w.length; d++ {
		if w.descend(cand[d], w.plan[d+1] == w.gen) {
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
