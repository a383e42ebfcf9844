package nn

// Compute-token scheduler: one process-wide counting semaphore shared by
// every CPU-bound consumer — campaign workers, PPO gradient shards, and
// the parallel GEMM kernels — so stacked parallelism (a worker pool of
// trainers, each with sharded minibatches, each shard running batched
// kernels) never oversubscribes the machine.
//
// The accounting convention:
//
//   - A top-level compute loop holds one token while it runs: campaign
//     workers block in AcquireComputeToken, one per running job. A
//     goroutine that drives compute without a token (a standalone
//     trainer) is counted implicitly — see the next rule.
//   - Nested parallelism (gradient shards, kernel row partitions) only
//     ever takes *extra* tokens (TryAcquireExtraToken: grants while
//     used < capacity-1, leaving headroom for the caller itself) and
//     falls back to running inline when none are free. Blocking
//     acquisition is confined to one level, so holders can always make
//     progress and the scheme cannot deadlock; a single-CPU machine
//     never pays dispatch overhead at all.
//
// Parallel kernels execute on a small pool of persistent worker
// goroutines fed reusable task slots, so the steady-state dispatch path
// allocates nothing (the batched-kernel 0 allocs/op contract holds with
// parallelism enabled). Work is partitioned by output row and every
// output element is computed start-to-finish by exactly one worker in a
// fixed summation order, so results are bit-identical for every worker
// count — see DESIGN.md "Hot path & data layout".

import (
	"runtime"
	"sync"
	"time"

	"autocat/internal/obs"
)

// tokenPool is the process-wide compute-token semaphore.
type tokenPool struct {
	mu   sync.Mutex
	cond *sync.Cond
	cap  int
	used int
}

var compute = newTokenPool(runtime.GOMAXPROCS(0))

func newTokenPool(n int) *tokenPool {
	if n < 1 {
		n = 1
	}
	p := &tokenPool{cap: n}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// SetKernelWorkers resizes the compute-token pool (minimum 1). The
// default is GOMAXPROCS. Tests force 1, 2, … to pin down scheduling;
// results are bit-identical for every setting.
func SetKernelWorkers(n int) {
	if n < 1 {
		n = 1
	}
	compute.mu.Lock()
	compute.cap = n
	compute.mu.Unlock()
	compute.cond.Broadcast()
	ensureKernelWorkers(n - 1)
}

// KernelWorkers returns the compute-token pool capacity.
func KernelWorkers() int {
	compute.mu.Lock()
	defer compute.mu.Unlock()
	return compute.cap
}

// AcquireComputeToken blocks until a compute token is free and takes it.
// Only top-level compute loops (campaign workers) may block; nested
// consumers must use TryAcquireExtraToken.
func AcquireComputeToken() {
	compute.mu.Lock()
	if compute.used >= compute.cap {
		// Timed only when actually blocking, so the uncontended acquire
		// pays nothing beyond one counter bump.
		t0 := time.Now()
		for compute.used >= compute.cap {
			compute.cond.Wait()
		}
		obs.SchedWaits.Inc()
		obs.SchedWaitNs.Observe(time.Since(t0).Nanoseconds())
	}
	obs.SchedAcquires.Inc()
	compute.used++
	compute.mu.Unlock()
}

// TryAcquireExtraToken takes a token for nested parallelism — gradient
// shards, kernel row partitions — leaving one token of headroom for the
// calling goroutine, which is itself a compute consumer whether or not
// it holds a token (a campaign worker does, a standalone trainer does
// not; counting the caller implicitly avoids double-booking either
// way). Release with ReleaseComputeToken.
func TryAcquireExtraToken() bool {
	compute.mu.Lock()
	ok := compute.used < compute.cap-1
	if ok {
		compute.used++
	}
	compute.mu.Unlock()
	if ok {
		obs.SchedExtraGrants.Inc()
	} else {
		obs.SchedExtraDenials.Inc()
	}
	return ok
}

// ReleaseComputeToken returns a token to the pool.
func ReleaseComputeToken() {
	compute.mu.Lock()
	compute.used--
	if compute.used < 0 {
		panic("nn: compute token released without acquire")
	}
	compute.mu.Unlock()
	compute.cond.Signal()
}

// gemmArgs carries one kernel invocation's operands. Tasks copy it by
// value into their slot, so the caller-side struct never escapes.
type gemmArgs struct {
	dst, a, b *Mat
	v1        []float64 // bias / auxiliary vector
	wt        []float64 // transposed weight copy (row-major Out×In)
	ctx       any       // kernel-specific receiver (e.g. *TransformerPolicy)
	idx       int       // chunk index, for per-chunk scratch selection
	sparse    bool      // inputs mostly zero: one-check-per-input axpy
}

// gemmFn is a row-range kernel: it computes output rows [lo, hi) of the
// operation described by g. Implementations are package-level functions
// (taking them as values never allocates).
type gemmFn func(g *gemmArgs, lo, hi int)

// gemmTask is one queued kernel chunk. Slots live in a fixed freelist
// and are reused — including the dispatch WaitGroup, which lives in the
// dispatching caller's own slot — so dispatch allocates nothing in
// steady state.
type gemmTask struct {
	fn     gemmFn
	g      gemmArgs
	lo, hi int
	wg     *sync.WaitGroup
	ownWG  sync.WaitGroup // used when this slot anchors a dispatch
}

const kernelTaskSlots = 64

// kernelPool is the persistent worker pool executing queued chunks.
var kernelPool struct {
	mu      sync.Mutex
	workers int
	free    []*gemmTask
	once    sync.Once
	jobs    chan *gemmTask
}

func initKernelPool() {
	kernelPool.jobs = make(chan *gemmTask, kernelTaskSlots)
	kernelPool.free = make([]*gemmTask, 0, kernelTaskSlots)
	for i := 0; i < kernelTaskSlots; i++ {
		kernelPool.free = append(kernelPool.free, new(gemmTask))
	}
}

// ensureKernelWorkers grows the worker-goroutine count to at least n.
// Excess workers from a larger earlier setting stay parked on the job
// channel; they are harmless.
func ensureKernelWorkers(n int) {
	kernelPool.once.Do(initKernelPool)
	kernelPool.mu.Lock()
	defer kernelPool.mu.Unlock()
	for kernelPool.workers < n {
		kernelPool.workers++
		go kernelWorker()
	}
}

func kernelWorker() {
	for t := range kernelPool.jobs {
		t.fn(&t.g, t.lo, t.hi)
		wg := t.wg
		t.wg = nil
		kernelPool.mu.Lock()
		kernelPool.free = append(kernelPool.free, t)
		kernelPool.mu.Unlock()
		ReleaseComputeToken()
		wg.Done()
	}
}

// takeSlot pops a free task slot, or nil when the freelist is empty
// (the caller then runs the chunk inline).
func takeSlot() *gemmTask {
	kernelPool.once.Do(initKernelPool)
	kernelPool.mu.Lock()
	defer kernelPool.mu.Unlock()
	if n := len(kernelPool.free); n > 0 {
		t := kernelPool.free[n-1]
		kernelPool.free = kernelPool.free[:n-1]
		return t
	}
	return nil
}

// parMinWork is the per-chunk multiply-add floor below which kernels
// stay sequential: smaller dispatches cost more in handoff than they
// save in parallelism.
const parMinWork = 1 << 15

// maxKernelChunks bounds the fan-out of one kernel call.
const maxKernelChunks = 8

// parPlan decides the fan-out of one kernel call over `rows` output
// rows costing `work` multiply-adds: it returns how many extra compute
// tokens it acquired (0 means "run inline"). Callers follow the
// two-step pattern
//
//	g := gemmArgs{...}
//	if extra := parPlan(rows, work); extra == 0 {
//		kSomething(&g, 0, rows) // direct call: g stays on the stack
//	} else {
//		parDispatch(kSomething, g, rows, extra)
//	}
//
// so the sequential fast path is a plain function call with zero
// allocations, and the parallel path hands the args to reusable task
// slots (also allocation-free in steady state).
func parPlan(rows, work int) int {
	if rows < 2 || work < 2*parMinWork {
		return 0
	}
	maxExtra := rows - 1
	if maxExtra > maxKernelChunks-1 {
		maxExtra = maxKernelChunks - 1
	}
	if byWork := work/parMinWork - 1; byWork < maxExtra {
		maxExtra = byWork
	}
	extra := 0
	for extra < maxExtra && TryAcquireExtraToken() {
		extra++
	}
	return extra
}

// parDispatch runs fn over output rows [0, rows) split into extra+1
// contiguous chunks: extra chunks go to the kernel worker pool, the
// first chunk runs on the caller. fn must write only rows [lo, hi) and
// must compute every output element in a fixed, partition-independent
// summation order; under that contract the result is bit-identical for
// every worker count.
func parDispatch(fn gemmFn, g gemmArgs, rows, extra int) {
	// The pool must hold capacity-1 workers, not merely `extra`: kernel
	// workers can themselves nest a dispatch (the transformer's
	// row-parallel forward runs layer kernels per chunk) and block
	// waiting on it while still occupying their worker. Tokens bound
	// the in-flight tasks to capacity-1, so with capacity-1 workers a
	// queued task always finds a free worker and the nesting cannot
	// starve — with only `extra` workers it deadlocks on many-core
	// machines.
	ensureKernelWorkers(KernelWorkers() - 1)
	// The caller's own slot anchors the dispatch: it hosts the args for
	// the caller's chunk and the WaitGroup the workers signal, so the
	// whole dispatch path allocates nothing. Without a free slot, fall
	// back to running everything inline (gg escapes — one allocation on
	// a path that requires >kernelTaskSlots concurrent dispatches).
	t0 := takeSlot()
	if t0 == nil {
		for i := 0; i < extra; i++ {
			ReleaseComputeToken()
		}
		gg := g
		fn(&gg, 0, rows)
		return
	}
	chunks := extra + 1
	wg := &t0.ownWG
	sent := 0
	for c := 1; c < chunks; c++ {
		t := takeSlot()
		if t == nil {
			break // freelist exhausted: run the rest inline
		}
		t.fn, t.g = fn, g
		t.g.idx = c // per-chunk scratch index
		t.lo, t.hi = rows*c/chunks, rows*(c+1)/chunks
		t.wg = wg
		wg.Add(1)
		kernelPool.jobs <- t
		sent++
	}
	// Unsent chunks (slot exhaustion) fold into the caller's range.
	for i := sent + 1; i < chunks; i++ {
		ReleaseComputeToken()
	}
	t0.g = g
	fn(&t0.g, 0, rows/chunks)
	if sent+1 < chunks {
		fn(&t0.g, rows*(sent+1)/chunks, rows)
	}
	wg.Wait()
	kernelPool.mu.Lock()
	kernelPool.free = append(kernelPool.free, t0)
	kernelPool.mu.Unlock()
}
