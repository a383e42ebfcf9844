package rl

import (
	"autocat/internal/env"
	"autocat/internal/nn"
)

// Episode is one replayed episode: the action sequence, the environment
// trace, the total return, and the guess outcome.
type Episode struct {
	Actions []int
	Trace   []env.TraceStep
	Return  float64
	Correct int
	Guesses int
}

// ReplayGreedy rolls out one episode with the deterministic argmax policy,
// the paper's "deterministic replay to extract the attack sequences"
// (§IV-C). Each step is a one-row ApplyBatch, so the replay needs
// exclusive use of net for its duration: no trainer, shard or other
// replay may run on the same net concurrently.
func ReplayGreedy(net nn.PolicyValueNet, e *env.Env) Episode {
	var ep Episode
	// Training-reward-only contract: greedy replay plays the unshaped
	// game even on a shaping-enabled env, so evaluation returns (and the
	// convergence test built on them) are comparable across shaped and
	// plain training runs.
	e.SetShapingEvalMode(true)
	defer e.SetShapingEvalMode(false)
	X := nn.NewMat(1, e.ObsDim())
	logits := nn.NewMat(1, net.NumActions())
	var value [1]float64
	e.ResetInto(X.Data)
	done := false
	for !done {
		net.ApplyBatch(X, logits, value[:])
		action := nn.Argmax(logits.Data)
		var r float64
		r, done = e.StepInto(action, X.Data)
		ep.Actions = append(ep.Actions, action)
		ep.Return += r
	}
	ep.Trace = append(ep.Trace, e.Trace()...)
	ep.Correct, ep.Guesses = e.EpisodeGuesses()
	return ep
}

// EvalStats aggregates greedy-policy evaluation over many episodes.
type EvalStats struct {
	Episodes   int
	Accuracy   float64 // correct guesses / guesses
	MeanLength float64 // steps per episode
	MeanReturn float64
	GuessRate  float64 // guesses per step (bit rate in guesses/step, §V-D)
}

// Evaluate replays n greedy episodes and aggregates accuracy, episode
// length, return, and guess rate.
func Evaluate(net nn.PolicyValueNet, e *env.Env, n int) EvalStats {
	var st EvalStats
	steps, guesses, correct := 0, 0, 0
	for i := 0; i < n; i++ {
		ep := ReplayGreedy(net, e)
		st.Episodes++
		st.MeanReturn += ep.Return
		steps += len(ep.Actions)
		guesses += ep.Guesses
		correct += ep.Correct
	}
	if st.Episodes > 0 {
		st.MeanReturn /= float64(st.Episodes)
		st.MeanLength = float64(steps) / float64(st.Episodes)
	}
	if guesses > 0 {
		st.Accuracy = float64(correct) / float64(guesses)
	}
	if steps > 0 {
		st.GuessRate = float64(guesses) / float64(steps)
	}
	return st
}

// ExtractAttack replays greedy episodes until one guesses correctly and
// returns it; attack sequences in the paper's tables are exactly such
// replays. It gives up after maxTries episodes and returns the last one
// with ok=false.
func ExtractAttack(net nn.PolicyValueNet, e *env.Env, maxTries int) (Episode, bool) {
	var last Episode
	for i := 0; i < maxTries; i++ {
		last = ReplayGreedy(net, e)
		if last.Guesses > 0 && last.Correct == last.Guesses {
			return last, true
		}
	}
	return last, false
}
