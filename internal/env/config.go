// Package env implements the cache guessing game: the Gym-style
// reinforcement-learning environment at the core of AutoCAT (§III-B, §IV).
//
// In each episode the environment draws a secret address for the victim
// program. The agent controls the attack program (and, for simplicity, when
// the victim runs): it can access or flush attacker addresses, trigger the
// victim's secret-dependent access, and finally guess the secret. Rewards
// follow the paper's Table II.
package env

import (
	"fmt"

	"autocat/internal/cache"
	"autocat/internal/detect"
)

// Rewards mirrors the reward options of Table II.
type Rewards struct {
	CorrectGuess    float64 // reward for a correct guess (> 0)
	WrongGuess      float64 // reward for a wrong guess (<= 0)
	Step            float64 // per-action penalty (<= 0)
	LengthViolation float64 // penalty when the episode exceeds the window
	Detection       float64 // penalty when a detector flags the episode
	NoGuess         float64 // multi-guess mode: penalty for a guess-free episode

	// Explicit marks an all-zero Rewards as intentional. New historically
	// treated the zero value as "unset" and substituted DefaultRewards,
	// which made a genuinely all-zero reward scheme unexpressible. Set
	// Explicit to keep the zeros. The field marshals omitzero so existing
	// scenario encodings — and therefore campaign job IDs — are unchanged.
	Explicit bool `json:",omitzero"`
}

// DefaultRewards returns the values used throughout the paper's
// experiments: +1 correct, -1 wrong, -0.01 step (§IV-C).
func DefaultRewards() Rewards {
	return Rewards{
		CorrectGuess:    1,
		WrongGuess:      -1,
		Step:            -0.01,
		LengthViolation: -2,
		Detection:       -2,
		NoGuess:         -2,
	}
}

// Shaping configures useless-action reward shaping (after "Efficient
// RL-based Cache Vulnerability Exploration by Penalizing Useless Agent
// Actions"): steps that provably cannot advance the attack — an access
// that neither changed cache state nor revealed a new hit/miss fact, a
// flush of a non-resident line, a victim trigger that was never re-armed
// — receive an extra penalty during training. The penalties shape the
// *training* reward only: evaluation rollouts run with shaping suppressed
// (see Env.SetShapingEvalMode), so eval accuracy and mean return are
// those of the unshaped game.
//
// Every field marshals omitzero and the zero value means "no shaping",
// so configs (and campaign job IDs derived from them) that predate this
// feature keep their exact encodings.
type Shaping struct {
	// Enable turns shaping on. With Enable set and every penalty zero,
	// the DefaultShaping penalties apply.
	Enable bool `json:",omitzero"`
	// NoOpAccess is the penalty (<= 0) for an attacker access that hit
	// without changing replacement state on a line whose residency the
	// attacker already knew — the access observed nothing and moved
	// nothing.
	NoOpAccess float64 `json:",omitzero"`
	// RedundantFlush is the penalty (<= 0) for flushing a line that was
	// not resident: the flush invalidated nothing.
	RedundantFlush float64 `json:",omitzero"`
	// WastedVictim is the penalty (<= 0) for re-triggering the victim
	// when it is already triggered and no guess has re-armed it: the
	// second secret-dependent access can only hit its own line.
	WastedVictim float64 `json:",omitzero"`
}

// DefaultShaping returns the tuned shaping penalties. They are
// deliberately *smaller* than the -0.01 step cost: the penalty's job is
// to break ties between a useless action and anything else, not to
// restructure episode returns. Empirically (exp.TableShaping's suite),
// penalties at 5-10x the step cost slowed convergence on every scenario
// — the ε-explore phase injects useless actions the policy does not yet
// control, and penalizing them hard just adds return variance the value
// baseline must absorb — while half-step-cost penalties reached the
// first reliable attack in fewer steps on 3 of 4 scenarios.
func DefaultShaping() Shaping {
	return Shaping{
		Enable:         true,
		NoOpAccess:     -0.005,
		RedundantFlush: -0.005,
		WastedVictim:   -0.005,
	}
}

// Normalize canonicalizes a Shaping for hashing: disabled shaping
// collapses to the zero value (penalties without Enable are inert), and
// Enable with all-zero penalties resolves to DefaultShaping, exactly as
// env.New would. Campaign job IDs hash the normalized form so equivalent
// configurations dedup.
func (s Shaping) Normalize() Shaping {
	if !s.Enable {
		return Shaping{}
	}
	if s == (Shaping{Enable: true}) {
		return DefaultShaping()
	}
	return s
}

// Target is the cache implementation the environment drives: the software
// simulator, a two-level hierarchy, or a simulated black-box machine
// (internal/hw). Access attributes the request to a security domain so
// detectors can build event trains.
type Target interface {
	Access(a cache.Addr, dom cache.Domain) cache.Result
	Flush(a cache.Addr) bool
	// SetOf reports the set an address maps to (used by detectors).
	SetOf(a cache.Addr) int
	Reset()
}

// Config assembles a guessing-game instance, mirroring the paper's
// Table II attack & victim program configuration block.
type Config struct {
	// Target is the cache under attack. Exactly one of Target or Cache
	// must be set; Cache is a convenience that wraps a fresh simulator.
	Target Target
	Cache  cache.Config

	// AttackerLo/Hi is the attack program's inclusive address range
	// (attack_addr_s / attack_addr_e).
	AttackerLo, AttackerHi cache.Addr
	// VictimLo/Hi is the victim program's inclusive address range
	// (victim_addr_s / victim_addr_e). The secret is drawn uniformly
	// from this range (plus "no access" when VictimNoAccess is set).
	VictimLo, VictimHi cache.Addr

	// FlushEnable adds a flush action per attacker address (flush_enable).
	FlushEnable bool
	// VictimNoAccess lets the victim make no access with the same
	// probability as each address (victim_no_access_enable); the guess
	// space gains an explicit "no access" guess (agE).
	VictimNoAccess bool

	// WindowSize is both the observation-history window and the episode
	// length limit (window_size). Zero defaults to 4×NumBlocks+4.
	WindowSize int

	// Warmup is the number of random initialization accesses performed at
	// episode start, drawn from the union of both address ranges
	// (§VI-B). A negative value disables warm-up; zero defaults to
	// NumBlocks.
	Warmup int

	// Rewards configures the reward signal; the zero value selects
	// DefaultRewards (set Rewards.Explicit for literal zeros).
	Rewards Rewards

	// Shaping configures useless-action reward shaping. The zero value
	// disables it and marshals to nothing, keeping pre-shaping job IDs
	// stable.
	Shaping Shaping `json:",omitzero"`

	// Detector optionally screens the episode (detection_enable).
	Detector detect.Detector
	// TerminateOnDetect ends the episode with the detection penalty the
	// moment the detector fires (the miss-based scheme in §V-D).
	// Offline detectors (CC-Hunter, Cyclone) are instead consulted at
	// episode end.
	TerminateOnDetect bool
	// DetectPenaltyCoef scales the detector's auxiliary penalty (the
	// L2 autocorrelation penalty a·ΣCp²/P of §V-D); it should be <= 0.
	DetectPenaltyCoef float64

	// EpisodeSteps switches to multi-guess mode when positive: episodes
	// run exactly this many steps, a guess scores and re-draws the
	// secret instead of terminating (the 160-step episodes of §V-D).
	EpisodeSteps int

	// LockVictimLines pre-installs and locks every victim address at
	// episode start, the PL-cache defense scenario of §V-D: the locked
	// lines can never be evicted by the attacker, yet their replacement
	// state still leaks. Requires a Target supporting Locker (the
	// built-in simulator does).
	LockVictimLines bool

	// PreloadVictimLines pre-installs (without locking) every victim
	// address at episode start. The miss-based detection study of §V-D
	// needs it: the victim's line starts resident, so a victim miss is
	// always the attacker's doing.
	PreloadVictimLines bool

	// Seed drives episode randomness (secret draws and warm-up).
	Seed int64
}

// Validate reports the first structural problem with the configuration.
func (c Config) Validate() error {
	if c.Target == nil {
		if err := c.Cache.Validate(); err != nil {
			return err
		}
	}
	if c.AttackerHi < c.AttackerLo {
		return fmt.Errorf("env: attacker address range [%d,%d] is empty", c.AttackerLo, c.AttackerHi)
	}
	if c.VictimHi < c.VictimLo {
		return fmt.Errorf("env: victim address range [%d,%d] is empty", c.VictimLo, c.VictimHi)
	}
	if c.WindowSize < 0 {
		return fmt.Errorf("env: negative window size %d", c.WindowSize)
	}
	if c.EpisodeSteps < 0 {
		return fmt.Errorf("env: negative episode steps %d", c.EpisodeSteps)
	}
	if c.DetectPenaltyCoef > 0 {
		return fmt.Errorf("env: DetectPenaltyCoef must be <= 0, got %v", c.DetectPenaltyCoef)
	}
	if c.Shaping.NoOpAccess > 0 || c.Shaping.RedundantFlush > 0 || c.Shaping.WastedVictim > 0 {
		return fmt.Errorf("env: shaping penalties must be <= 0, got %+v", c.Shaping)
	}
	return nil
}

// Locker is the optional Target extension for PL-cache experiments.
type Locker interface {
	Lock(a cache.Addr, dom cache.Domain)
}

// ObsFlusher is the optional Target extension for telemetry: FlushObs
// publishes the counts its caches hold locally to the obs registry. The
// env calls it whenever an episode completes; caches otherwise publish
// only once per cache.ObsBatch accesses and flushes.
type ObsFlusher interface {
	FlushObs()
}

// simTarget adapts a single-level simulator to the Target interface.
type simTarget struct{ c *cache.Cache }

func (t simTarget) Access(a cache.Addr, dom cache.Domain) cache.Result { return t.c.Access(a, dom) }
func (t simTarget) Flush(a cache.Addr) bool                            { return t.c.Flush(a) }
func (t simTarget) SetOf(a cache.Addr) int                             { return t.c.SetOf(a) }
func (t simTarget) Reset()                                             { t.c.Reset() }
func (t simTarget) Lock(a cache.Addr, dom cache.Domain)                { t.c.Lock(a, dom) }
func (t simTarget) FlushObs()                                          { t.c.FlushObs() }

// HierarchyTarget adapts a two-level hierarchy: the victim runs on core 0
// and the attacker on core 1, as in Table IV configs 16-17.
type HierarchyTarget struct{ H *cache.Hierarchy }

// Access routes the request to the requesting domain's core.
func (t HierarchyTarget) Access(a cache.Addr, dom cache.Domain) cache.Result {
	core := 1
	if dom == cache.DomainVictim {
		core = 0
	}
	return t.H.Access(core, a, dom)
}

// Flush removes the line from every level.
func (t HierarchyTarget) Flush(a cache.Addr) bool { return t.H.Flush(a) }

// SetOf reports the shared L2 set index.
func (t HierarchyTarget) SetOf(a cache.Addr) int { return t.H.L2().SetOf(a) }

// Reset restores every level to the power-on state.
func (t HierarchyTarget) Reset() { t.H.Reset() }

// FlushObs publishes every level's local telemetry counts (ObsFlusher).
func (t HierarchyTarget) FlushObs() { t.H.FlushObs() }
