// Package search implements the non-learning baselines of §VI-A: random
// and exhaustive search for distinguishing attack sequences, and the
// closed-form expected-trials estimate M = 2(N+1)^(2N+1)/(N!)² for
// finding a prime+probe sequence on an N-way set by chance.
//
// A Searcher is the one way into both searches, and picks the
// evaluator once. On replay-deterministic configurations candidates
// walk a trie over a memo of (secret, cache state) transitions and of
// joint nodes, so a step of a new candidate is one table lookup, and the
// memo outlives the searcher in a process-wide pool keyed by config (see
// walker.go and memo.go); every other configuration runs the faithful
// re-simulating scan, so its results are unchanged. Both evaluators
// run under one candidate-batch driver (see parallel.go).
package search

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"autocat/internal/cache"
	"autocat/internal/env"
)

// ExpectedTrials returns M = 2·(N+1)^(2N+1) / (N!)², the paper's estimate
// of random sequences needed to stumble on one prime+probe attack for an
// N-way set (§VI-A). For N = 8 this is ≈ 2.05e7.
func ExpectedTrials(n int) float64 {
	logM := math.Log(2) + float64(2*n+1)*math.Log(float64(n+1))
	lf, _ := math.Lgamma(float64(n + 1))
	logM -= 2 * lf
	return math.Exp(logM)
}

// ExpectedSteps converts ExpectedTrials into environment steps: each
// candidate sequence costs 2N+2 steps (§VI-A).
func ExpectedSteps(n int) float64 {
	return ExpectedTrials(n) * float64(2*n+2)
}

// Result summarizes one search run.
type Result struct {
	Found     bool
	Sequences int // candidate sequences evaluated
	Steps     int // environment steps charged, memo hits included
	Attack    []int
}

// nonGuessActions enumerates the candidate action pool: every action
// except guesses (a guess ends the episode and carries no signature).
func nonGuessActions(e *env.Env) []int {
	var pool []int
	for a := 0; a < e.NumActions(); a++ {
		kind, _ := e.DecodeAction(a)
		if kind != env.KindGuess && kind != env.KindGuessNone {
			pool = append(pool, a)
		}
	}
	return pool
}

// walkable is the walker gate: the env must support replay keys,
// episode outcomes must be a pure function of (secret, actions) — no
// RNG stream that survives Reset drawn mid-episode — and warm-up, which
// draws from the env stream at every Reset, must be off.
func walkable(e *env.Env) bool {
	return e.Config().Warmup < 0 && e.ReplaySupported() && e.ReplayDeterministic()
}

// Searcher runs the searches of one exploration, at any lengths, on one
// env config. On configs that pass the walker gate it holds the memo
// every length shares; on the others each search scans a fresh env
// built from the config on one worker, so every search starts from the
// RNG streams a new env starts with. Searches on one Searcher must not
// run concurrently.
type Searcher struct {
	e       *env.Env // config source; only a one-shot scan steps it
	walk    bool     // candidates run on the trie walker, not the scan
	oneShot bool     // the scan steps e itself (RandomSearch, ExhaustiveSearch)
	pool    []int
	col     []int // col[a] is action a's index in pool
	secrets []cache.Addr
	slots   []*memoSlot
	bufs    *memoBuffers // the memo pool entry checked out for the searcher
}

// NewSearcher builds a searcher for e's config; e is never stepped. A
// walker searcher checks out the memo the last released searcher of
// the same config left in the pool, if any (see memoKey).
func NewSearcher(e *env.Env) *Searcher {
	s := &Searcher{e: e, walk: walkable(e), pool: nonGuessActions(e), col: make([]int, e.NumActions()), secrets: e.Secrets()}
	for i, a := range s.pool {
		s.col[a] = i
	}
	key := env.Config{}
	if s.walk {
		key = memoKey(e)
	}
	s.bufs = memos.checkout(key, s.walk)
	s.slots = s.bufs.slots
	return s
}

// Parallel reports whether extra workers can help: false on the scan,
// which ignores the worker count.
func (s *Searcher) Parallel() bool { return s.walk }

// scanEnv returns the env a scan steps: e itself for a one-shot search,
// else a fresh env from e's config.
func (s *Searcher) scanEnv() *env.Env {
	if s.oneShot {
		return s.e
	}
	e, err := env.New(s.e.Config())
	if err != nil {
		panic(fmt.Sprintf("search: rebuilding a validated env config: %v", err))
	}
	return e
}

// RandomSearch is Searcher.Random for a single search on one worker.
// On configs that take the scan it steps e, so consecutive searches on
// one e continue its RNG streams.
func RandomSearch(ctx context.Context, e *env.Env, length, budget int, seed int64) Result {
	s := oneShot(e)
	defer s.Release()
	return s.Random(ctx, length, budget, seed, 1)
}

// ExhaustiveSearch is Searcher.Exhaustive for a single search on one
// worker, stepping e on the scan as RandomSearch does.
func ExhaustiveSearch(ctx context.Context, e *env.Env, length, budget int) Result {
	s := oneShot(e)
	defer s.Release()
	return s.Exhaustive(ctx, length, budget, 1)
}

// oneShot is a searcher whose scan steps e itself.
func oneShot(e *env.Env) *Searcher {
	s := NewSearcher(e)
	s.oneShot = true
	return s
}

// scanner is the re-simulating scan's evaluator. It enumerates the
// secrets once and keeps one flat nsec×length signature buffer, so
// evaluating a candidate allocates nothing.
type scanner struct {
	e       *env.Env
	length  int
	secrets []cache.Addr
	sigs    []byte
	steps   int
}

func newScanner(e *env.Env, length int) *scanner {
	secrets := e.Secrets()
	return &scanner{e: e, length: length, secrets: secrets, sigs: make([]byte, len(secrets)*length)}
}

func (s *scanner) restart()     {}
func (s *scanner) charged() int { return s.steps }

// evalCandidate runs distinguishes on candidate j of a batch.
func (s *scanner) evalCandidate(cands []int, j int) bool {
	ok, n := s.distinguishes(cands[j*s.length : (j+1)*s.length])
	s.steps += n
	return ok
}

// distinguishes reports whether prefix (of the scanner's length; a
// guess in it fails) gives every secret a distinct signature, the
// success predicate of both searches, and the steps it ran: evaluation
// stops at a guess, a finished episode or a signature collision. Every
// secret is replayed from Reset in enumeration order and compared with
// the secrets before it, so the steps and the env's RNG consumption
// match a map-based first-collision check exactly. The first guess is
// found once, up front: secret 0 still resets and steps the actions
// before it, as a per-step check would, and then the candidate fails.
func (s *scanner) distinguishes(prefix []int) (bool, int) {
	n := len(prefix)
	guess := n
	for j, a := range prefix {
		if kind, _ := s.e.DecodeAction(a); kind == env.KindGuess || kind == env.KindGuessNone {
			guess = j
			break
		}
	}
	steps := 0
	for i, sec := range s.secrets {
		s.e.Reset()
		s.e.ForceSecret(sec)
		sig := s.sigs[i*n : (i+1)*n]
		for j, a := range prefix[:guess] {
			_, done := s.e.Step(a)
			steps++
			sig[j] = s.e.SignatureChar()
			if done {
				return false, steps
			}
		}
		if guess < n {
			return false, steps
		}
		for k := 0; k < i; k++ {
			if bytes.Equal(s.sigs[k*n:(k+1)*n], sig) {
				return false, steps
			}
		}
	}
	return true, steps
}
