package rl

import (
	"autocat/internal/env"
	"autocat/internal/nn"
)

// Episode is one replayed episode: the action sequence, the total
// return, and the guess outcome.
type Episode struct {
	Actions []int
	Return  float64
	Correct int
	Guesses int
}

// Player plays one evaluation episode on the environment it was built
// for and returns it. Every explorer is scored through one: Greedy for a
// trained net, the search backend's decision table and agents.Play for
// the scripted attackers.
type Player func() Episode

// Greedy returns the player that rolls out net's deterministic argmax
// policy on e, the paper's "deterministic replay to extract the attack
// sequences" (§IV-C). Its one-row observation and logit matrices and
// value slot are allocated once, and each episode's Actions is sized to
// e.MaxSteps() up front, so a played episode costs one allocation. Each
// step is a one-row ApplyBatch, so playing needs exclusive use of net:
// no trainer, shard or other replay may run on the same net
// concurrently. It plays the game as configured; Evaluate and
// ExtractAttack suppress shaping around it.
func Greedy(net nn.PolicyValueNet, e *env.Env) Player {
	X := nn.NewMat(1, e.ObsDim())
	logits := nn.NewMat(1, net.NumActions())
	value := make([]float64, 1)
	return func() Episode {
		ep := Episode{Actions: make([]int, 0, e.MaxSteps())}
		e.Reset()
		for done := false; !done; {
			e.ObsInto(X.Data)
			net.ApplyBatch(X, logits, value)
			action := nn.Argmax(logits.Data)
			var r float64
			r, done = e.Step(action)
			ep.Actions = append(ep.Actions, action)
			ep.Return += r
		}
		ep.Correct, ep.Guesses = e.EpisodeGuesses()
		return ep
	}
}

// EvalStats aggregates policy evaluation over many episodes.
type EvalStats struct {
	Episodes   int
	Accuracy   float64 // correct guesses / guesses
	MeanLength float64 // steps per episode
	MeanReturn float64
	GuessRate  float64 // guesses per step (bit rate in guesses/step, §V-D)
}

// Evaluate plays n episodes on e and aggregates accuracy, episode
// length, return and guess rate; it is the one place per-episode steps,
// guesses and correct guesses are summed. Training-reward-only contract:
// it plays the unshaped game even on a shaping-enabled env, so accuracy,
// mean return and the convergence test built on them compare across
// shaped and plain training runs.
func Evaluate(e *env.Env, n int, play Player) EvalStats {
	e.SetShapingEvalMode(true)
	defer e.SetShapingEvalMode(false)
	var st EvalStats
	steps, guesses, correct := 0, 0, 0
	for i := 0; i < n; i++ {
		ep := play()
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

// ExtractAttack plays episodes on e until one guesses perfectly and
// returns it; attack sequences in the paper's tables are exactly such
// replays. It gives up after maxTries episodes and returns the last one
// with ok=false. Like Evaluate, it plays the unshaped game.
func ExtractAttack(e *env.Env, maxTries int, play Player) (Episode, bool) {
	e.SetShapingEvalMode(true)
	defer e.SetShapingEvalMode(false)
	var last Episode
	for i := 0; i < maxTries; i++ {
		last = play()
		if last.Guesses > 0 && last.Correct == last.Guesses {
			return last, true
		}
	}
	return last, false
}
