package env

import (
	"bytes"
	"testing"

	"autocat/internal/cache"
)

// replayCfg decodes a fuzzed selector into one of the configurations the
// incremental search accepts (ReplayDeterministic, warm-up off): policy
// {lru, plru, rrip} × defense {none, CEASER without rekeying, partition}
// × prefetcher {none, next-line, stream} × target {single level, locked
// victim lines, preloaded victim lines, two-level hierarchy}.
func replayCfg(sel uint8) Config {
	policies := []cache.PolicyKind{cache.LRU, cache.PLRU, cache.RRIP}
	defenses := []cache.DefenseConfig{{}, {Kind: cache.DefenseCEASER}, {Kind: cache.DefensePartition, VictimWays: 1}}
	prefetchers := []cache.PrefetcherKind{cache.NoPrefetch, cache.NextLine, cache.StreamPrefetch}
	s := int(sel)
	cfg := snapCfg(policies[s%3], defenses[s/3%3], prefetchers[s/9%3], int64(sel)+1)
	switch s / 27 % 4 {
	case 1:
		cfg.LockVictimLines = true
	case 2:
		cfg.PreloadVictimLines = true
	case 3:
		l1, l2 := cfg.Cache, cfg.Cache
		l1.NumBlocks, l1.NumWays = 4, 2
		cfg.Target = HierarchyTarget{H: cache.NewHierarchy(cache.HierarchyConfig{Cores: 2, L1: l1, L2: l2})}
	}
	return cfg
}

// FuzzReplayState fuzzes the replay key the search walker memoizes on:
// for a fuzzed replay-deterministic configuration, secret, and
// non-guess action sequence split at a fuzzed point, env A's state at
// the split must (1) survive Load→Append byte for byte and (2) when
// loaded into a sibling B that had wandered elsewhere, make B produce
// the same signature characters and keys as A for the rest of the
// sequence.
func FuzzReplayState(f *testing.F) {
	f.Add(uint8(0), uint8(3), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(40), uint8(1), []byte{9, 9, 1, 0, 8, 2, 250, 3, 4, 17})
	f.Add(uint8(60), uint8(5), []byte{7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3})
	f.Add(uint8(89), uint8(2), []byte{0, 0, 0, 200, 200, 200, 11, 11})
	f.Add(uint8(107), uint8(4), []byte{12, 1, 12, 2, 12, 3, 5, 6})
	f.Fuzz(func(t *testing.T, cfgSel, split uint8, raw []byte) {
		cfg := replayCfg(cfgSel % 108)
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !a.ReplaySupported() || !a.ReplayDeterministic() {
			t.Fatalf("config %d must pass the walker gate", cfgSel%108)
		}
		b, err := a.Sibling()
		if err != nil {
			t.Fatal(err)
		}
		pool := nonGuessPool(a)
		if len(raw) >= a.MaxSteps() {
			raw = raw[:a.MaxSteps()-1]
		}
		actions := make([]int, len(raw))
		for i, r := range raw {
			actions[i] = pool[int(r)%len(pool)]
		}
		secrets := a.Secrets()
		a.Reset()
		a.ForceSecret(secrets[int(split)%len(secrets)])
		k := 0
		if len(actions) > 0 {
			k = int(split) % (len(actions) + 1)
		}
		for _, act := range actions[:k] {
			a.Step(act)
		}
		key := a.AppendReplayState(nil)

		// B detours through the whole sequence on another secret first,
		// so the load must overwrite every part of the key.
		b.Reset()
		b.ForceSecret(secrets[(int(split)+1)%len(secrets)])
		for _, act := range actions {
			b.Step(act)
		}
		b.LoadReplayState(key)
		if got := b.AppendReplayState(nil); !bytes.Equal(got, key) {
			t.Fatalf("Load→Append changed the key:\n got  %v\n want %v", got, key)
		}
		for i, act := range actions[k:] {
			a.Step(act)
			b.Step(act)
			if ca, cb := a.SignatureChar(), b.SignatureChar(); ca != cb {
				t.Fatalf("step %d (action %d): signature %c vs %c after load", k+i, act, ca, cb)
			}
			ka, kb := a.AppendReplayState(key[:0]), b.AppendReplayState(nil)
			if !bytes.Equal(ka, kb) {
				t.Fatalf("step %d (action %d): keys diverged after load:\n %v\n %v", k+i, act, ka, kb)
			}
			key = ka
		}
	})
}
