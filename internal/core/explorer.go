// Package core is the AutoCAT framework itself (Figure 2a): it wires a
// target cache implementation into the guessing-game environment, runs
// an exploration backend over it — the PPO agent, the budgeted prefix
// search, or the scripted textbook probers — extracts attack sequences
// by deterministic replay, and classifies them: the full pipeline from
// "cache implementation + attack/victim configuration" to "replayable
// attack sequence + category". The Explorer interface (backend.go)
// makes the backend pluggable; ReplaySpec makes every discovery
// reproducible bit-for-bit.
package core

import (
	"bytes"
	"context"
	"fmt"

	"autocat/internal/analysis"
	"autocat/internal/detect"
	"autocat/internal/env"
	"autocat/internal/nn"
	"autocat/internal/rl"
	"autocat/internal/search"
)

// Backbone selects the policy network architecture.
type Backbone string

// Available policy backbones.
const (
	MLP         Backbone = "mlp"         // fast default (§VI-B)
	Transformer Backbone = "transformer" // the paper's architecture (§IV-C)
)

// newNet builds a backbone's policy network for e's observation and
// action shapes, its weights initialized from seed.
func newNet(b Backbone, hidden []int, e *env.Env, seed int64) (nn.PolicyValueNet, error) {
	switch b {
	case MLP, "":
		return nn.NewMLP(nn.MLPConfig{
			ObsDim:  e.ObsDim(),
			Actions: e.NumActions(),
			Hidden:  hidden,
			Seed:    seed,
		}), nil
	case Transformer:
		return nn.NewTransformer(nn.TransformerConfig{
			Window:   e.Window(),
			Features: e.FeatureDim(),
			Actions:  e.NumActions(),
			Seed:     seed,
		}), nil
	}
	return nil, fmt.Errorf("core: unknown backbone %q", b)
}

// Config assembles one exploration run.
type Config struct {
	// Env is the guessing-game configuration (cache, address ranges,
	// rewards, detectors).
	Env env.Config
	// Envs is the number of parallel rollout environments. Default 8.
	Envs int
	// TargetFactory, when set, builds a fresh Target per parallel
	// environment (stateful targets such as black-box machines must not
	// be shared between rollout actors).
	TargetFactory func(i int) (env.Target, error)
	// DetectorFactory, when set, builds a fresh Detector per environment
	// for the same reason.
	DetectorFactory func() detect.Detector
	// Backbone picks the policy network. Default MLP.
	Backbone Backbone
	// Hidden sizes the MLP trunk. Default [64, 64].
	Hidden []int
	// PPO carries the trainer hyperparameters; its Seed also seeds the
	// network and environments.
	PPO rl.PPOConfig
	// EvalEpisodes sizes the final greedy evaluation. Default 256.
	EvalEpisodes int
}

// Result is the outcome of one exploration, whichever backend produced
// it. The search and probe backends leave Train zero and fill Eval,
// Attack, Sequence and Category through the same deterministic
// evaluation path their artifacts replay through.
type Result struct {
	Train     rl.Result
	Eval      rl.EvalStats
	Attack    rl.Episode
	AttackOK  bool
	Sequence  string // the attack in the paper's arrow notation
	Category  analysis.Category
	NumParams int
	// Kind names the backend that produced the result ("" is legacy PPO).
	Kind ExplorerKind
	// Replay, when non-nil, is the self-contained recipe that reproduces
	// Eval/Attack/Sequence bit-for-bit on a fresh environment; artifact
	// persistence serializes it.
	Replay *ReplaySpec
	// Net is the trained policy (PPO backend only; nil otherwise). It is
	// what Replay's weights blob was serialized from.
	Net nn.PolicyValueNet
	// Search reports the search backend's cost accounting (nil otherwise).
	Search *search.Result
}

// PPOExplorer owns the environments, network and trainer for one PPO
// exploration run (the paper's pipeline). It is the training-grade
// surface; the PPOBackend adapter wraps it into the Explorer interface.
type PPOExplorer struct {
	cfg     Config
	envs    []*env.Env
	net     nn.PolicyValueNet
	trainer *rl.Trainer
}

// New validates the configuration and builds the explorer.
func New(cfg Config) (*PPOExplorer, error) {
	if cfg.Envs == 0 {
		cfg.Envs = 8
	}
	if cfg.Backbone == "" {
		cfg.Backbone = MLP
	}
	if cfg.EvalEpisodes == 0 {
		cfg.EvalEpisodes = 256
	}
	ex := &PPOExplorer{cfg: cfg}
	for i := 0; i < cfg.Envs; i++ {
		ecfg := cfg.Env
		ecfg.Seed = cfg.Env.Seed + int64(i)*7919
		if cfg.TargetFactory != nil {
			t, err := cfg.TargetFactory(i)
			if err != nil {
				return nil, fmt.Errorf("core: target %d: %w", i, err)
			}
			ecfg.Target = t
		}
		if cfg.DetectorFactory != nil {
			ecfg.Detector = cfg.DetectorFactory()
		}
		e, err := env.New(ecfg)
		if err != nil {
			return nil, fmt.Errorf("core: environment %d: %w", i, err)
		}
		ex.envs = append(ex.envs, e)
	}
	net, err := newNet(cfg.Backbone, cfg.Hidden, ex.envs[0], cfg.PPO.Seed)
	if err != nil {
		return nil, err
	}
	ex.net = net
	tr, err := rl.NewTrainer(ex.net, ex.envs, cfg.PPO)
	if err != nil {
		return nil, err
	}
	ex.trainer = tr
	return ex, nil
}

// Env returns the first environment (for replay and formatting).
func (ex *PPOExplorer) Env() *env.Env { return ex.envs[0] }

// Net returns the policy network.
func (ex *PPOExplorer) Net() nn.PolicyValueNet { return ex.net }

// Trainer exposes the underlying PPO trainer for epoch-level control.
func (ex *PPOExplorer) Trainer() *rl.Trainer { return ex.trainer }

// Run trains to convergence (or the epoch budget), evaluates the greedy
// policy, extracts an attack sequence, and classifies it. Training
// checks ctx between epochs, and a cancelled run still evaluates and
// classifies whatever policy it has (so partial results stay usable).
// An expired deadline is the exception: it means a supervisor bounded
// this job's wall clock, so the post-training passes (greedy eval,
// attack extraction, replay serialization) are skipped and the run
// returns promptly — a timed-out job must not keep computing past its
// budget.
func (ex *PPOExplorer) Run(ctx context.Context) *Result {
	train := ex.trainer.Train(ctx)
	if ctx.Err() == context.DeadlineExceeded {
		return &Result{Train: train, Kind: ExplorerPPO}
	}
	res := evaluateNet(ex.net, ex.envs[0], ex.cfg.EvalEpisodes)
	res.Train = train
	if spec, err := ex.replaySpec(); err == nil {
		res.Replay = spec
	}
	return res
}

// replaySpec serializes the trained policy into a self-contained replay
// recipe (backbone shape + weights blob + eval episode count).
func (ex *PPOExplorer) replaySpec() (*ReplaySpec, error) {
	var buf bytes.Buffer
	if err := nn.SaveWeights(&buf, ex.net); err != nil {
		return nil, err
	}
	return &ReplaySpec{
		Kind:         ExplorerPPO,
		Backbone:     ex.cfg.Backbone,
		Hidden:       ex.cfg.Hidden,
		EvalEpisodes: ex.cfg.EvalEpisodes,
		Weights:      buf.Bytes(),
	}, nil
}

// Explore is the one-call convenience: build an explorer and run it.
func Explore(cfg Config) (*Result, error) {
	ex, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return ex.Run(context.Background()), nil
}
