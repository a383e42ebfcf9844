package search

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"

	"autocat/internal/obs"
	"autocat/internal/rng"
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

// published bumps the search counters for one returned search; the
// scan runs every step it charges.
func published(res Result, scan bool) Result {
	obs.SearchCandidates.Add(uint64(res.Sequences))
	obs.SearchSteps.Add(uint64(res.Steps))
	if scan {
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

// Exhaustive tries every prefix of the given length in lexicographic
// order until one distinguishes all secrets or the budget (checked
// after each candidate) is exhausted. Cancelling the context aborts the
// enumeration promptly. The scan takes the candidates from the batch
// driver. The walker splits the space into one shard per first action,
// a depth-first walk of the action trie with whole subtrees resolved
// arithmetically once every secret's signature has split, claimed by up
// to workers walkers, worker i on memo slot i. The reduction counts only
// shards a sequential scan would have reached, so the Result is
// independent of the worker count and of what the memo already holds.
func (s *Searcher) Exhaustive(ctx context.Context, length, budget, workers int) Result {
	if ctx.Err() != nil {
		return Result{}
	}
	limit := min(max(budget, 1), powClamp(len(s.pool), length))
	if s.walk {
		return published(s.exhaustiveWalk(ctx, length, limit, workers), false)
	}
	pool, idx := s.pool, make([]int, length)
	odometer := func(cands []int) {
		for off := 0; off < len(cands); off += length {
			for i, k := range idx {
				cands[off+i] = pool[k]
			}
			for i := length - 1; i >= 0; i-- {
				if idx[i]++; idx[i] < len(pool) {
					break
				}
				idx[i] = 0
			}
		}
	}
	return s.scan(ctx, length, limit, odometer)
}

// exhaustiveWalk is Exhaustive on the walker, over the first limit
// candidates.
func (s *Searcher) exhaustiveWalk(ctx context.Context, length, limit, workers int) Result {
	pool := s.pool
	// Candidates at or beyond MaxSteps end the episode on their final
	// action, which fails every candidate: the enumeration degenerates
	// to counting. (The walker is gated on length < MaxSteps.)
	if length >= s.e.MaxSteps() {
		return Result{Sequences: limit}
	}
	if length == 0 {
		// One empty candidate: it distinguishes exactly when there is at
		// most one secret (a single empty signature never collides).
		if len(s.secrets) <= 1 {
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

	ws := s.walkers(max(min(workers, nshards), 1), length)
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

// uniform draws ints in [0, n) from src, bit for bit the draws of
// rand.New(src).Intn(n) for 0 < n < 1<<31, consuming the same Int63
// values: Int31n's rejection bound is computed once, and its % is a
// multiply (Lemire's fastmod: for 32-bit v and n, the high word of
// (v·m mod 2⁶⁴)·n with m = ⌊(2⁶⁴−1)/n⌋+1 is v mod n). src is the
// concrete rng.Source, whose Int31s draws a whole batch in one call.
type uniform struct {
	src   *rng.Source
	n     uint64
	mask  int // n-1 when n is a power of two, else -1
	bound int // Int31n's largest accepted 31-bit draw
	m     uint64
}

func newUniform(src *rng.Source, n int) *uniform {
	u := &uniform{src: src, n: uint64(n), mask: -1}
	if n&(n-1) == 0 {
		u.mask = n - 1
	} else {
		u.bound = 1<<31 - 1 - int((1<<31)%uint32(n))
		u.m = ^uint64(0)/uint64(n) + 1
	}
	return u
}

// fill sets out[i] to pool[k] for each next draw k. The raw 31-bit
// draws are written into out and mapped in place. A rejected draw
// shifts the accepted ones after it down a slot, and the slots left
// free at the end are drawn again, so the draws are taken in Intn's
// order.
func (u *uniform) fill(out, pool []int) {
	mask, bound, m, n := u.mask, u.bound, u.m, u.n
	for len(out) > 0 {
		u.src.Int31s(out)
		if mask >= 0 {
			for i, v := range out {
				out[i] = pool[v&mask]
			}
			return
		}
		w := 0
		for _, v := range out {
			if v <= bound {
				k, _ := bits.Mul64(m*uint64(v), n)
				out[w] = pool[k]
				w++
			}
		}
		out = out[w:]
	}
}

// batchSize is the candidate count per batch of the batch driver: the
// unit of parallel dispatch and of shared-prefix reuse. Every batch
// restarts its evaluator, so per-batch step counts are a pure function
// of the batch's candidates and the reduction stays worker-count
// invariant.
const batchSize = 256

// Random samples uniformly random non-guess prefixes of the given length
// until one distinguishes all secrets or the sequence budget is
// exhausted. One generator, an rng.Source seeded with seed and drawn
// through uniform (bit for bit math/rand's Rand.Intn on the same seed),
// fills the batch driver's batches, which up to workers walkers take,
// worker i on memo slot i, and the scan takes on one worker. The Result
// is independent of the worker count and of what the memo holds, and the
// walker's Found, Attack and Sequences are the scan's. Cancelling the
// context stops the search at the next batch, with Found false.
func (s *Searcher) Random(ctx context.Context, length, budget int, seed int64, workers int) Result {
	if ctx.Err() != nil || budget <= 0 {
		return Result{}
	}
	pool, u := s.pool, newUniform(s.source(seed), len(s.pool))
	draw := func(cands []int) { u.fill(cands, pool) }
	if !s.walk {
		return s.scan(ctx, length, budget, draw)
	}
	if length >= s.e.MaxSteps() {
		// Every candidate ends its episode on the final action and fails.
		return published(Result{Sequences: budget}, false)
	}
	if length == 0 {
		if len(s.secrets) <= 1 {
			return published(Result{Found: true, Sequences: 1, Attack: []int{}}, false)
		}
		return published(Result{Sequences: budget}, false)
	}
	ws := s.walkers(max(min(workers, (budget+batchSize-1)/batchSize), 1), length)
	evs := make([]evaluator, len(ws))
	for i, wk := range ws {
		evs[i] = wk
	}
	res := s.batches(ctx, evs, length, budget, draw)
	for _, wk := range ws {
		wk.close()
	}
	return published(res, false)
}

// scan evaluates n candidates of the given length, filled in order by
// fill, on the re-simulating scan of one env through the batch driver.
func (s *Searcher) scan(ctx context.Context, length, n int, fill func(cands []int)) Result {
	sc := newScanner(s.scanEnv(), length)
	return published(s.batches(ctx, []evaluator{sc}, length, n, fill), true)
}

// evaluator scores candidates for the batch driver: the trie walker or
// the re-simulating scanner. After restart it is given a batch's
// candidates (row-major in cands) in order, j = 0, 1, ...; charged is
// the steps it charged so far.
type evaluator interface {
	restart()
	evalCandidate(cands []int, j int) bool
	charged() int
}

// batch is one dispatch unit: candidates [start, start+n) in stream
// order, flattened row-major into cands.
type batch struct {
	index int
	start int
	n     int
	cands []int
}

// batches is the batch driver: it evaluates the first n candidates of
// the given length that fill writes, in stream order, in batches of
// batchSize on the evaluators evs.
func (s *Searcher) batches(ctx context.Context, evs []evaluator, length, n int, fill func(cands []int)) Result {
	nbatches := (n + batchSize - 1) / batchSize
	outs := make([]shardOut, nbatches)
	for i := range outs {
		outs[i].found = -1
	}
	bestF := notFound

	// The candidate stream must be filled sequentially (rand.Intn's
	// rejection sampling makes per-candidate draw counts data-dependent,
	// so random streams cannot be split), so a single producer fills
	// batches in order, each into a recycled buffer of cands.
	gen := func(b int, cands []int) batch {
		start := b * batchSize
		k := min(batchSize, n-start)
		cands = cands[:k*length]
		fill(cands)
		return batch{index: b, start: start, n: k, cands: cands}
	}
	bufLen := min(n, batchSize) * length

	evalBatch := func(ev evaluator, b batch) {
		out := &outs[b.index]
		out.start = b.start
		out.found = -1
		if int64(b.start) > atomic.LoadInt64(&bestF) || ctx.Err() != nil {
			return // aborted
		}
		ev.restart()
		steps0 := ev.charged()
		for j := 0; j < b.n; j++ {
			if ev.evalCandidate(b.cands, j) {
				out.found = b.start + j
				out.attack = append([]int(nil), b.cands[j*length:(j+1)*length]...)
				atomicMin(&bestF, int64(out.found))
				break
			}
		}
		out.steps = ev.charged() - steps0
		if out.found < 0 {
			out.completed = true
			out.count = b.n
		}
	}

	if len(evs) == 1 {
		ev, buf := evs[0], s.candidates(bufLen)
		for b := 0; b < nbatches; b++ {
			evalBatch(ev, gen(b, buf))
			if outs[b].found >= 0 || ctx.Err() != nil {
				break
			}
		}
		return reduce(outs)
	}

	// Buffers cycle producer → evaluator → free: one per evaluator plus
	// one, so the producer fills the next batch while every evaluator
	// evaluates.
	free := make(chan []int, len(evs)+1)
	for block := s.candidates(cap(free) * bufLen); len(block) > 0; block = block[bufLen:] {
		free <- block[:bufLen:bufLen]
	}
	work := make(chan batch, len(evs))
	var wg sync.WaitGroup
	for _, ev := range evs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				evalBatch(ev, b)
				free <- b.cands
			}
		}()
	}
	for b := 0; b < nbatches; b++ {
		buf := <-free
		if int64(b*batchSize) > atomic.LoadInt64(&bestF) || ctx.Err() != nil {
			break // no batch at or before the best find remains unproduced
		}
		work <- gen(b, buf)
	}
	close(work)
	wg.Wait()
	return reduce(outs)
}
