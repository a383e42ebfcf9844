package env

import (
	"testing"

	"autocat/internal/cache"
)

// refDecode is the block-layout switch the env decoded every step with
// before the decode table, kept verbatim as the reference.
func refDecode(t *actionTable, a int) decodedAction {
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

// TestDecodeTableMatchesSwitch: DecodeAction answers every int in
// [-2, total+2), in range from the table and outside it from the
// blocks, exactly as the switch did, under every combination of flush
// and no-access guessing.
func TestDecodeTableMatchesSwitch(t *testing.T) {
	for _, flush := range []bool{false, true} {
		for _, noAccess := range []bool{false, true} {
			e := mustEnv(t, Config{
				Cache:      cache.Config{NumBlocks: 4, NumWays: 2},
				AttackerLo: 2, AttackerHi: 5,
				VictimLo: 0, VictimHi: 2,
				FlushEnable: flush, VictimNoAccess: noAccess,
				Warmup: -1,
			})
			total := e.NumActions()
			for a := -2; a < total+2; a++ {
				want := refDecode(&e.actions, a)
				kind, addr := e.DecodeAction(a)
				if kind != want.kind || addr != want.addr {
					t.Errorf("flush %v, no-access %v: action %d decodes to (%v, %d), want (%v, %d)",
						flush, noAccess, a, kind, addr, want.kind, want.addr)
				}
			}
		}
	}
}
