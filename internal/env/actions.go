package env

import (
	"fmt"

	"autocat/internal/cache"
)

// ActionKind classifies the discrete actions of §III-B.
type ActionKind int

// The action kinds: attacker access (aX), attacker flush (a_fX), victim
// trigger (av), secret guess (agY), and no-access guess (agE).
const (
	KindAccess ActionKind = iota
	KindFlush
	KindVictim
	KindGuess
	KindGuessNone
)

func (k ActionKind) String() string {
	switch k {
	case KindAccess:
		return "access"
	case KindFlush:
		return "flush"
	case KindVictim:
		return "victim"
	case KindGuess:
		return "guess"
	case KindGuessNone:
		return "guess-none"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// decodedAction is an action index resolved to its kind and operand.
type decodedAction struct {
	kind ActionKind
	addr cache.Addr // operand for access/flush/guess
}

// actionTable lays the discrete action space out as contiguous blocks:
// [accesses][flushes?][victim trigger][guesses][guess-none?]. dec holds
// every in-range index already decoded, so the step path decodes with
// one load.
type actionTable struct {
	attLo     cache.Addr
	nAccess   int
	flushBase int // -1 when flush is disabled
	victimIdx int
	vicLo     cache.Addr
	guessBase int
	nGuess    int
	guessNone int // -1 when no-access guessing is disabled
	total     int
	dec       []decodedAction // dec[a] is decodeBlocks(a) for a in [0,total)
}

func buildActions(cfg Config) actionTable {
	t := actionTable{
		attLo:   cfg.AttackerLo,
		nAccess: int(cfg.AttackerHi - cfg.AttackerLo + 1),
		vicLo:   cfg.VictimLo,
		nGuess:  int(cfg.VictimHi - cfg.VictimLo + 1),
	}
	next := t.nAccess
	t.flushBase = -1
	if cfg.FlushEnable {
		t.flushBase = next
		next += t.nAccess
	}
	t.victimIdx = next
	next++
	t.guessBase = next
	next += t.nGuess
	t.guessNone = -1
	if cfg.VictimNoAccess {
		t.guessNone = next
		next++
	}
	t.total = next
	t.dec = make([]decodedAction, t.total)
	for a := range t.dec {
		t.dec[a] = t.decodeBlocks(a)
	}
	return t
}

// decode resolves action index a: a table load in range, and the block
// arithmetic for any other int, so DecodeAction answers every int.
func (t *actionTable) decode(a int) decodedAction {
	if uint(a) < uint(len(t.dec)) {
		return t.dec[a]
	}
	return t.decodeBlocks(a)
}

// decodeBlocks resolves a from the block layout.
func (t *actionTable) decodeBlocks(a int) decodedAction {
	switch {
	case a < t.nAccess:
		return decodedAction{kind: KindAccess, addr: t.attLo + cache.Addr(a)}
	case t.flushBase >= 0 && a < t.flushBase+t.nAccess:
		return decodedAction{kind: KindFlush, addr: t.attLo + cache.Addr(a-t.flushBase)}
	case a == t.victimIdx:
		return decodedAction{kind: KindVictim}
	case a == t.guessNone:
		return decodedAction{kind: KindGuessNone}
	default:
		return decodedAction{kind: KindGuess, addr: t.vicLo + cache.Addr(a-t.guessBase)}
	}
}

// AccessAction returns the action index that accesses attacker address a.
func (e *Env) AccessAction(a cache.Addr) int {
	if a < e.cfg.AttackerLo || a > e.cfg.AttackerHi {
		panic(fmt.Sprintf("env: address %d outside attacker range [%d,%d]", a, e.cfg.AttackerLo, e.cfg.AttackerHi))
	}
	return int(a - e.actions.attLo)
}

// FlushAction returns the action index that flushes attacker address a.
// It panics when flushing is disabled.
func (e *Env) FlushAction(a cache.Addr) int {
	if e.actions.flushBase < 0 {
		panic("env: flush actions are disabled")
	}
	if a < e.cfg.AttackerLo || a > e.cfg.AttackerHi {
		panic(fmt.Sprintf("env: address %d outside attacker range [%d,%d]", a, e.cfg.AttackerLo, e.cfg.AttackerHi))
	}
	return e.actions.flushBase + int(a-e.actions.attLo)
}

// VictimAction returns the action index that triggers the victim.
func (e *Env) VictimAction() int { return e.actions.victimIdx }

// GuessAction returns the action index guessing that the secret is a.
func (e *Env) GuessAction(a cache.Addr) int {
	if a < e.cfg.VictimLo || a > e.cfg.VictimHi {
		panic(fmt.Sprintf("env: address %d outside victim range [%d,%d]", a, e.cfg.VictimLo, e.cfg.VictimHi))
	}
	return e.actions.guessBase + int(a-e.actions.vicLo)
}

// GuessNoneAction returns the "victim made no access" guess index. It
// panics when VictimNoAccess is disabled.
func (e *Env) GuessNoneAction() int {
	if e.actions.guessNone < 0 {
		panic("env: no-access guessing is disabled")
	}
	return e.actions.guessNone
}

// ActionString renders an action in the paper's trace notation: a plain
// number for an access, "f n" for a flush, "v" for the victim trigger,
// "g n" / "gE" for guesses.
func (e *Env) ActionString(a int) string {
	d := e.actions.decode(a)
	switch d.kind {
	case KindAccess:
		return fmt.Sprintf("%d", d.addr)
	case KindFlush:
		return fmt.Sprintf("f%d", d.addr)
	case KindVictim:
		return "v"
	case KindGuess:
		return fmt.Sprintf("g%d", d.addr)
	default:
		return "gE"
	}
}

// DecodeAction exposes an action's kind and operand address.
func (e *Env) DecodeAction(a int) (ActionKind, cache.Addr) {
	d := e.actions.decode(a)
	return d.kind, d.addr
}

// FormatTrace renders an action sequence in the paper's arrow notation,
// e.g. "7→4→5→v→7→5→4→g0".
func (e *Env) FormatTrace(actions []int) string {
	s := ""
	for i, a := range actions {
		if i > 0 {
			s += "→"
		}
		s += e.ActionString(a)
	}
	return s
}
