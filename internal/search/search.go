// Package search implements the non-learning baselines of §VI-A: random
// sequence search for distinguishing attack sequences, and the closed-form
// expected-trials estimate M = 2(N+1)^(2N+1)/(N!)² for finding a
// prime+probe sequence on an N-way set by chance.
//
// On replay-deterministic configurations both searches run incrementally:
// the candidate space is walked as a trie over a memo of (secret, cache
// state) transitions and of joint nodes, the walker's position, so each
// distinct transition is simulated once and a step of a new candidate
// is one table lookup (see walker.go); one Memo can serve every length
// of an exploration (see memo.go).
// Configurations whose episode outcomes are history-dependent (random
// replacement, skew, active CEASER rekeying, warm-up) fall back to the
// faithful re-simulating scan so results are unchanged.
package search

import (
	"bytes"
	"context"
	"math"
	"math/rand"

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

// Distinguishes reports whether the candidate prefix (actions that must
// not include guesses) produces a distinct attacker observation vector for
// every possible secret, i.e. whether a decision rule over the prefix's
// hit/miss observations can always recover the secret. This is the
// success predicate of the random-search baseline. The second return is
// the number of environment steps actually consumed: evaluation stops
// early on a guess action, a finished episode, or a signature collision,
// and only the steps executed up to that point are charged.
func Distinguishes(e *env.Env, prefix []int) (bool, int) {
	return newScanner(e, len(prefix)).distinguishes(prefix)
}

// scanner is the re-simulating scan's per-search scratch: the secrets,
// enumerated once, and one flat nsec×length signature buffer, so
// evaluating a candidate allocates nothing.
type scanner struct {
	e       *env.Env
	secrets []cache.Addr
	sigs    []byte
}

func newScanner(e *env.Env, length int) *scanner {
	secrets := e.Secrets()
	return &scanner{e: e, secrets: secrets, sigs: make([]byte, len(secrets)*length)}
}

// distinguishes is Distinguishes on the scanner's env. Every secret is
// replayed from Reset in enumeration order, and its signature is compared
// with those of the secrets before it, so the steps charged and the env's
// RNG consumption match a map-based first-collision check exactly. prefix
// must have the length the scanner was built for.
func (s *scanner) distinguishes(prefix []int) (bool, int) {
	n := len(prefix)
	steps := 0
	for i, sec := range s.secrets {
		s.e.Reset()
		s.e.ForceSecret(sec)
		sig := s.sigs[i*n : (i+1)*n]
		for j, a := range prefix {
			kind, _ := s.e.DecodeAction(a)
			if kind == env.KindGuess || kind == env.KindGuessNone {
				return false, steps
			}
			_, done := s.e.StepLite(a)
			steps++
			sig[j] = s.e.SignatureChar()
			if done {
				return false, steps
			}
		}
		for k := 0; k < i; k++ {
			if bytes.Equal(s.sigs[k*n:(k+1)*n], sig) {
				return false, steps
			}
		}
	}
	return true, steps
}

// cancelled polls a context's Done channel without the lock Err takes.
func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
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

// Incremental reports whether the searches run e on the trie walker, the
// only path extra workers help, rather than the re-simulating scan: the
// env must support replay keys, episode outcomes must be a pure function
// of (secret, actions) — no RNG stream that survives Reset consumed
// mid-episode — and warm-up must be disabled (warm-up draws from the env
// stream at every Reset, making signatures episode-dependent; the scan
// is kept so existing results on such configs are preserved bit-for-bit).
func Incremental(e *env.Env) bool {
	return e.Config().Warmup < 0 && e.ReplaySupported() && e.ReplayDeterministic()
}

// RandomSearch samples uniformly random non-guess prefixes of the given
// length until one distinguishes all secrets or the sequence budget is
// exhausted. A warm-up-free environment is required for the predicate to
// be sound (random warm-up would make signatures episode-dependent).
// Cancelling the context aborts the search promptly (checked once per
// candidate sequence) and returns the partial result with Found false.
//
// On replay-deterministic configs candidates are evaluated through the
// incremental trie walker, memoizing the overlap between consecutively
// sampled prefixes; the candidate stream, Found, Attack, and Sequences
// are identical to the re-simulating scan.
func RandomSearch(ctx context.Context, e *env.Env, length, budget int, seed int64) Result {
	return RandomSearchN(ctx, e, length, budget, seed, 1)
}

func randomLegacy(ctx context.Context, e *env.Env, length, budget int, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	pool := nonGuessActions(e)
	sc := newScanner(e, length)
	done := ctx.Done()
	var res Result
	prefix := make([]int, length)
	for res.Sequences < budget && !cancelled(done) {
		for i := range prefix {
			prefix[i] = pool[rng.Intn(len(pool))]
		}
		res.Sequences++
		ok, consumed := sc.distinguishes(prefix)
		res.Steps += consumed
		if ok {
			res.Found = true
			res.Attack = append([]int(nil), prefix...)
			return res
		}
	}
	return res
}

// ExhaustiveSearch tries every prefix of the given length in
// lexicographic order until one distinguishes all secrets or the budget
// is exhausted. Cancelling the context aborts the enumeration promptly.
//
// On replay-deterministic configs the enumeration is a depth-first walk
// of the action trie over the walker's transition memo, with whole
// subtrees resolved arithmetically once every secret's signature
// has split; Found, Attack, and Sequences are identical to the
// re-simulating scan.
func ExhaustiveSearch(ctx context.Context, e *env.Env, length, budget int) Result {
	return ExhaustiveSearchN(ctx, e, length, budget, 1)
}

func exhaustiveLegacy(ctx context.Context, e *env.Env, length, budget int) Result {
	pool := nonGuessActions(e)
	sc := newScanner(e, length)
	done := ctx.Done()
	var res Result
	prefix := make([]int, length)
	idx := make([]int, length)
	for !cancelled(done) {
		for i := range prefix {
			prefix[i] = pool[idx[i]]
		}
		res.Sequences++
		ok, consumed := sc.distinguishes(prefix)
		res.Steps += consumed
		if ok {
			res.Found = true
			res.Attack = append([]int(nil), prefix...)
			return res
		}
		if res.Sequences >= budget {
			return res
		}
		// Increment the odometer.
		i := length - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(pool) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return res
		}
	}
	return res
}
