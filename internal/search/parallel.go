package search

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"

	"autocat/internal/env"
	"autocat/internal/obs"
)

// notFound marks a shard or batch that contained no distinguishing
// candidate; bestF is initialized to it so atomic mins compose.
const notFound = int64(seqCap)

// shardOut is the per-shard (or per-batch) record the deterministic
// reduction consumes. Aborted shards (cancelled because another shard
// already found an earlier candidate) keep completed false and are
// excluded from every total.
type shardOut struct {
	start     int
	count     int // candidates covered when completed and not found
	steps     int
	found     int // global candidate index, -1 if none
	attack    []int
	completed bool
}

// reduce folds per-shard results into a Result, independent of the order
// and interleaving the shards were processed in:
//
//   - Found is the minimum found index F across shards; Sequences = F+1.
//   - Steps sums only shards whose range starts at or before F — exactly
//     the shards a sequential in-order scan would have processed — so the
//     step count is identical for every worker count. A shard can only
//     abort when an earlier candidate was already found, so no shard that
//     the formula counts is ever missing.
//   - Without a find, Sequences and Steps sum every completed shard
//     (shards are only left incomplete by context cancellation).
func reduce(outs []shardOut) Result {
	var res Result
	best := -1
	for i := range outs {
		if outs[i].found >= 0 && (best < 0 || outs[i].found < outs[best].found) {
			best = i
		}
	}
	if best >= 0 {
		f := outs[best].found
		res.Found = true
		res.Attack = outs[best].attack
		res.Sequences = f + 1
		for i := range outs {
			if outs[i].start <= f && (outs[i].completed || outs[i].found >= 0) {
				res.Steps += outs[i].steps
			}
		}
		return res
	}
	for i := range outs {
		if outs[i].completed {
			res.Sequences += outs[i].count
			res.Steps += outs[i].steps
		}
	}
	return res
}

// published bumps the search counters for one returned search; a legacy
// scan runs every step it charges.
func published(res Result, legacy bool) Result {
	obs.SearchCandidates.Add(uint64(res.Sequences))
	obs.SearchSteps.Add(uint64(res.Steps))
	if legacy {
		obs.SearchSimulated.Add(uint64(res.Steps))
		obs.SearchLegacyScans.Inc()
	}
	return res
}

// atomicMin lowers *v to x if x is smaller.
func atomicMin(v *int64, x int64) {
	for {
		cur := atomic.LoadInt64(v)
		if x >= cur || atomic.CompareAndSwapInt64(v, cur, x) {
			return
		}
	}
}

// ExhaustiveSearchN is ExhaustiveSearch with the candidate space split
// into one shard per first action, processed by up to workers walkers on
// a fresh Memo (see Memo.ExhaustiveSearch). Non-replay-deterministic
// configurations run the sequential scan on e regardless of workers.
func ExhaustiveSearchN(ctx context.Context, e *env.Env, length, budget, workers int) Result {
	if !Incremental(e) {
		return published(exhaustiveLegacy(ctx, e, length, budget), true)
	}
	return NewMemo(e).ExhaustiveSearch(ctx, length, budget, workers)
}

// ExhaustiveSearch is the exhaustive search on the memo's env, with the
// candidate space split into one shard per first action, processed by
// up to workers walkers, worker i on memo slot i. Shard→subtree
// assignment is fixed by the lexicographic order, shards are claimed
// dynamically, and the reduction only counts shards a sequential scan
// would have reached, so Found, Attack, Sequences, and Steps are
// independent of the worker count and of what the memo already holds.
func (m *Memo) ExhaustiveSearch(ctx context.Context, length, budget, workers int) Result {
	return published(exhaustiveIncremental(ctx, m, length, budget, workers), false)
}

// exhaustiveIncremental runs the budget-bounded lexicographic DFS over
// the action trie, sharded by first action across up to workers walkers.
func exhaustiveIncremental(ctx context.Context, m *Memo, length, budget, workers int) Result {
	if ctx.Err() != nil {
		return Result{}
	}
	pool := m.pool
	total := powClamp(len(pool), length)
	limit := budget
	if limit < 1 {
		limit = 1 // the scan checks its budget after evaluating a candidate
	}
	if total < limit {
		limit = total
	}
	// Candidates at or beyond MaxSteps end the episode on their final
	// action, which fails every candidate: the enumeration degenerates
	// to counting. (The walker is gated on length < MaxSteps.)
	if length >= m.e.MaxSteps() {
		return Result{Sequences: limit}
	}
	if length == 0 {
		// One empty candidate: it distinguishes exactly when there is at
		// most one secret (a single empty signature never collides).
		if len(m.secrets) <= 1 {
			return Result{Found: true, Sequences: 1, Attack: []int{}}
		}
		return Result{Sequences: 1}
	}

	span := powClamp(len(pool), length-1)
	nshards := len(pool)
	outs := make([]shardOut, nshards)
	for i := range outs {
		outs[i].found = -1
	}
	bestF := notFound
	var next int64

	runShards := func(wk *walker) {
		for {
			i := int(atomic.AddInt64(&next, 1) - 1)
			if i >= nshards {
				return
			}
			start := satMul(i, span)
			outs[i].start = start
			outs[i].found = -1
			if start >= limit {
				// Budget never reaches this shard; it contributes nothing.
				outs[i].completed = true
				continue
			}
			if int64(start) > atomic.LoadInt64(&bestF) || ctx.Err() != nil {
				continue // aborted: an earlier candidate already won
			}
			wk.restart()
			steps0 := wk.steps
			found := -1
			aborted := false
			if wk.descend(pool[i]) {
				found = start
			} else if wk.depth < wk.length {
				abort := func() bool {
					return int64(start) > atomic.LoadInt64(&bestF) || ctx.Err() != nil
				}
				if f, ok, ab := wk.dfs(start, limit, abort); ok {
					found = f
				} else if ab {
					aborted = true
				}
			}
			outs[i].steps = wk.steps - steps0
			if found >= 0 {
				outs[i].found = found
				outs[i].attack = wk.attack()
				atomicMin(&bestF, int64(found))
			} else if !aborted {
				outs[i].completed = true
				end := satAdd(start, span)
				if end > limit {
					end = limit
				}
				outs[i].count = end - start
			}
		}
	}

	ws := m.walkers(max(min(workers, nshards), 1), length)
	if len(ws) == 1 {
		runShards(ws[0])
		ws[0].close()
	} else {
		var wg sync.WaitGroup
		for _, wk := range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runShards(wk)
				wk.close()
			}()
		}
		wg.Wait()
	}
	return reduce(outs)
}

// randBatchSize is the candidate count per random-search batch: the unit
// of parallel dispatch and of shared-prefix reuse. Every batch restarts
// the walker at the root, so per-batch step counts are a pure function
// of the batch's candidates and the reduction stays worker-count
// invariant.
const randBatchSize = 256

// RandomSearchN is RandomSearch with candidate batches fanned out across
// up to workers walkers on a fresh Memo (see Memo.RandomSearch).
// Non-replay-deterministic configurations run the sequential scan on e
// regardless of workers.
func RandomSearchN(ctx context.Context, e *env.Env, length, budget int, seed int64, workers int) Result {
	if !Incremental(e) {
		return published(randomLegacy(ctx, e, length, budget, seed), true)
	}
	return NewMemo(e).RandomSearch(ctx, length, budget, seed, workers)
}

// RandomSearch is the random search on the memo's env, with candidate
// batches fanned out across up to workers walkers, worker i on memo slot
// i. The candidate stream is drawn from a single sequential generator
// (identical to the sequential scan's stream), batches are assigned
// deterministically, and the reduction matches ExhaustiveSearch's, so
// results are independent of the worker count and of what the memo
// already holds.
func (m *Memo) RandomSearch(ctx context.Context, length, budget int, seed int64, workers int) Result {
	return published(randomIncremental(ctx, m, length, budget, seed, workers), false)
}

// randBatch is one dispatch unit: candidates [start, start+n) in sample
// order, flattened row-major into cands.
type randBatch struct {
	index int
	start int
	n     int
	cands []int
}

// randomIncremental evaluates the seed-ordered candidate stream through
// per-worker walkers in fixed batches.
func randomIncremental(ctx context.Context, m *Memo, length, budget int, seed int64, workers int) Result {
	if ctx.Err() != nil || budget <= 0 {
		return Result{}
	}
	pool := m.pool
	if length >= m.e.MaxSteps() {
		// Every candidate ends its episode on the final action and fails.
		return Result{Sequences: budget}
	}
	if length == 0 {
		if len(m.secrets) <= 1 {
			return Result{Found: true, Sequences: 1, Attack: []int{}}
		}
		return Result{Sequences: budget}
	}

	rng := rand.New(rand.NewSource(seed))
	nbatches := (budget + randBatchSize - 1) / randBatchSize
	outs := make([]shardOut, nbatches)
	for i := range outs {
		outs[i].found = -1
	}
	bestF := notFound

	// The candidate stream must be drawn sequentially from one generator
	// (rand.Intn's rejection sampling makes per-candidate draw counts
	// data-dependent, so streams cannot be split), so a single producer
	// materializes batches in order.
	gen := func(b int) randBatch {
		start := b * randBatchSize
		n := randBatchSize
		if start+n > budget {
			n = budget - start
		}
		cands := make([]int, n*length)
		for i := range cands {
			cands[i] = pool[rng.Intn(len(pool))]
		}
		return randBatch{index: b, start: start, n: n, cands: cands}
	}

	evalBatch := func(wk *walker, b randBatch) {
		out := &outs[b.index]
		out.start = b.start
		out.found = -1
		if int64(b.start) > atomic.LoadInt64(&bestF) || ctx.Err() != nil {
			return // aborted
		}
		wk.restart()
		steps0 := wk.steps
		for j := 0; j < b.n; j++ {
			if wk.evalCandidate(b.cands, j) {
				out.found = b.start + j
				out.attack = append([]int(nil), b.cands[j*length:(j+1)*length]...)
				atomicMin(&bestF, int64(out.found))
				break
			}
		}
		out.steps = wk.steps - steps0
		if out.found < 0 {
			out.completed = true
			out.count = b.n
		}
	}

	ws := m.walkers(max(min(workers, nbatches), 1), length)
	if len(ws) == 1 {
		wk := ws[0]
		for b := 0; b < nbatches; b++ {
			batch := gen(b)
			evalBatch(wk, batch)
			if outs[b].found >= 0 || ctx.Err() != nil {
				break
			}
		}
		wk.close()
		return reduce(outs)
	}

	batches := make(chan randBatch, len(ws))
	var wg sync.WaitGroup
	for _, wk := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range batches {
				evalBatch(wk, b)
			}
			wk.close()
		}()
	}
	for b := 0; b < nbatches; b++ {
		if int64(b*randBatchSize) > atomic.LoadInt64(&bestF) || ctx.Err() != nil {
			break // no batch at or before the best find remains unproduced
		}
		batches <- gen(b)
	}
	close(batches)
	wg.Wait()
	return reduce(outs)
}
