// Defensebypass: reproduce the µarch-statistics detection case study of
// §V-D — train an agent against a victim-miss detector that terminates
// the episode (with a penalty) the moment the victim misses, and show
// that the agent still finds an attack: one that never causes a victim
// miss, the property that makes StealthyStreamline stealthy.
package main

import (
	"fmt"
	"log"

	"autocat"
)

func main() {
	fmt.Println("training against miss-based detection (victim miss ⇒ episode terminated, -2)")

	// 2-way set; the victim's line 0 is pre-installed (but evictable) at
	// episode start; the attacker owns lines 1-2. The victim accesses 0
	// or nothing; any attack that evicts line 0 makes the victim miss and
	// is caught, so the agent must learn the LRU-state attack that leaves
	// the victim's line resident: fill the free way, trigger, insert a
	// fresh line (which evicts the LRU — the attacker's line iff the
	// victim promoted its own), and probe.
	mk := func(det autocat.Detector, terminate bool) (*autocat.ExploreResult, error) {
		return autocat.Explore(autocat.ExploreConfig{
			Env: autocat.EnvConfig{
				Cache:      autocat.CacheConfig{NumBlocks: 2, NumWays: 2, Policy: autocat.LRU},
				AttackerLo: 1, AttackerHi: 2,
				VictimLo: 0, VictimHi: 0,
				VictimNoAccess:     true,
				PreloadVictimLines: true,
				Warmup:             -1,
				WindowSize:         8,
				Detector:           det,
				TerminateOnDetect:  terminate,
				Seed:               3,
			},
			Hidden: []int{32, 32},
			PPO: autocat.PPOConfig{
				StepsPerEpoch:   3000,
				MaxEpochs:       100,
				EntAnnealEpochs: 50,
				ExploreEps:      0.35,
				Seed:            3,
			},
		})
	}

	res, err := mk(autocat.NewMissBased(), true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged:       %v after %d epochs\n", res.Train.Converged, res.Train.Epochs)
	fmt.Printf("greedy accuracy: %.3f\n", res.Eval.Accuracy)
	fmt.Printf("attack sequence: %s  (category: %s)\n", res.Sequence, res.Category)

	// Verify stealth: replay the attack across both secrets and count
	// victim misses.
	e := autocat.MustEnv(autocat.EnvConfig{
		Cache:      autocat.CacheConfig{NumBlocks: 2, NumWays: 2, Policy: autocat.LRU},
		AttackerLo: 1, AttackerHi: 2,
		VictimLo: 0, VictimHi: 0,
		VictimNoAccess:     true,
		PreloadVictimLines: true,
		Warmup:             -1,
		WindowSize:         8,
		Seed:               99,
	})
	det := autocat.NewMissBased()
	misses := 0
	for i := 0; i < 100; i++ {
		e.Reset()
		det.Reset()
		done := false
		for _, a := range res.Attack.Actions {
			if done {
				break
			}
			_, done = e.Step(a)
		}
		for _, st := range e.Trace() {
			if st.Kind == autocat.KindVictim && e.Secret() != autocat.NoAccess && !st.Hit {
				misses++
			}
		}
	}
	fmt.Printf("victim misses over 100 replays: %d (stealthy attacks keep this at 0)\n", misses)
}
