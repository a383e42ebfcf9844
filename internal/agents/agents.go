// Package agents implements the scripted baseline attackers the paper
// compares AutoCAT against: the textbook prime+probe and flush+reload
// attacks (the "textbook" rows of Tables VIII and IX; the Figure 4
// LRU-state channels live in internal/covert). Play is the one
// scripted-episode loop; rl.Evaluate scores its episodes like any other
// player's.
package agents

import (
	"autocat/internal/cache"
	"autocat/internal/env"
	"autocat/internal/rl"
)

// Agent is a scripted policy over the guessing-game environment. Reset is
// called at episode start; Act returns the next action given the
// environment's visible trace (scripted agents read hits/misses from
// e.Trace(), never the secret).
type Agent interface {
	Reset()
	Act(e *env.Env) int
}

// Play runs one scripted episode of a on e, recording the actions: the
// rl.Player every scripted attacker is scored through (rl.Evaluate,
// rl.ExtractAttack).
func Play(e *env.Env, a Agent) rl.Episode {
	var ep rl.Episode
	e.Reset()
	a.Reset()
	done := false
	for !done {
		act := a.Act(e)
		var r float64
		r, done = e.Step(act)
		ep.Actions = append(ep.Actions, act)
		ep.Return += r
	}
	ep.Correct, ep.Guesses = e.EpisodeGuesses()
	return ep
}

// PrimeProbe is the textbook prime+probe attacker for a direct-mapped or
// set-associative cache with disjoint attacker/victim address spaces: prime
// every attacker address, trigger the victim, probe every address, then
// guess the victim address congruent to the probe that missed. It loops
// forever in multi-guess episodes, exactly like the for-loop attacks the
// paper calls "textbook".
type PrimeProbe struct {
	phase   int // 0 prime, 1 trigger, 2 probe, 3 guess
	idx     int
	missIdx int
	numSets int
}

// NewPrimeProbe builds the agent for an environment whose cache has
// numSets sets (modular address mapping assumed, as in every Table IV
// config).
func NewPrimeProbe(numSets int) *PrimeProbe {
	return &PrimeProbe{numSets: numSets, missIdx: -1}
}

// Reset restarts the prime phase.
func (a *PrimeProbe) Reset() {
	a.phase, a.idx, a.missIdx = 0, 0, -1
}

// Act advances the prime → trigger → probe → guess state machine.
func (a *PrimeProbe) Act(e *env.Env) int {
	cfg := e.Config()
	nAtt := int(cfg.AttackerHi - cfg.AttackerLo + 1)
	switch a.phase {
	case 0: // prime
		act := e.AccessAction(cfg.AttackerLo + cache.Addr(a.idx))
		a.idx++
		if a.idx >= nAtt {
			a.phase, a.idx = 1, 0
		}
		return act
	case 1: // trigger victim
		a.phase = 2
		return e.VictimAction()
	case 2: // probe, recording the first miss
		if a.idx > 0 {
			tr := e.Trace()
			last := tr[len(tr)-1]
			if last.Kind == env.KindAccess && !last.Hit && a.missIdx < 0 {
				a.missIdx = a.idx - 1
			}
		}
		if a.idx < nAtt {
			act := e.AccessAction(cfg.AttackerLo + cache.Addr(a.idx))
			a.idx++
			return act
		}
		// Check the final probe result before guessing.
		tr := e.Trace()
		last := tr[len(tr)-1]
		if last.Kind == env.KindAccess && !last.Hit && a.missIdx < 0 {
			a.missIdx = a.idx - 1
		}
		a.phase = 3
		fallthrough
	default: // guess
		a.phase, a.idx = 0, 0
		missIdx := a.missIdx
		a.missIdx = -1
		if missIdx < 0 {
			if cfg.VictimNoAccess {
				return e.GuessNoneAction()
			}
			// No probe missed: guess the first victim address.
			return e.GuessAction(cfg.VictimLo)
		}
		// The missed probe's set identifies the victim address.
		missSet := int(cfg.AttackerLo+cache.Addr(missIdx)) % a.numSets
		for v := cfg.VictimLo; v <= cfg.VictimHi; v++ {
			if int(v)%a.numSets == missSet {
				return e.GuessAction(v)
			}
		}
		return e.GuessAction(cfg.VictimLo)
	}
}

// FlushReload is the textbook flush+reload attacker for shared-memory
// configurations: flush every shared victim address, trigger the victim,
// reload each address and guess the one that hits.
type FlushReload struct {
	phase  int // 0 flush, 1 trigger, 2 reload, 3 guess
	idx    int
	hitIdx int
}

// NewFlushReload builds the agent; the environment must have FlushEnable
// and an attacker range covering the victim range.
func NewFlushReload() *FlushReload { return &FlushReload{hitIdx: -1} }

// Reset restarts the flush phase.
func (a *FlushReload) Reset() { a.phase, a.idx, a.hitIdx = 0, 0, -1 }

// Act advances the flush → trigger → reload → guess state machine.
func (a *FlushReload) Act(e *env.Env) int {
	cfg := e.Config()
	nVic := int(cfg.VictimHi - cfg.VictimLo + 1)
	switch a.phase {
	case 0: // flush every victim-shared line
		act := e.FlushAction(cfg.VictimLo + cache.Addr(a.idx))
		a.idx++
		if a.idx >= nVic {
			a.phase, a.idx = 1, 0
		}
		return act
	case 1:
		a.phase = 2
		return e.VictimAction()
	case 2: // reload, recording the first hit
		if a.idx > 0 {
			tr := e.Trace()
			last := tr[len(tr)-1]
			if last.Kind == env.KindAccess && last.Hit && a.hitIdx < 0 {
				a.hitIdx = a.idx - 1
			}
		}
		if a.idx < nVic {
			act := e.AccessAction(cfg.VictimLo + cache.Addr(a.idx))
			a.idx++
			return act
		}
		tr := e.Trace()
		last := tr[len(tr)-1]
		if last.Kind == env.KindAccess && last.Hit && a.hitIdx < 0 {
			a.hitIdx = a.idx - 1
		}
		a.phase = 3
		fallthrough
	default:
		a.phase, a.idx = 0, 0
		hitIdx := a.hitIdx
		a.hitIdx = -1
		if hitIdx < 0 {
			if cfg.VictimNoAccess {
				return e.GuessNoneAction()
			}
			return e.GuessAction(cfg.VictimLo)
		}
		return e.GuessAction(cfg.VictimLo + cache.Addr(hitIdx))
	}
}
