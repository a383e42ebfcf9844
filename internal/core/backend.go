package core

// The Explorer interface and its three backends: the paper's framework
// (Figure 2a) treats "find an attack" as one pipeline — configuration
// in, replayable attack sequence out — and this file makes the pipeline
// pluggable. The PPO backend wraps the training explorer; the search
// backend lifts the §VI-A random/exhaustive baselines into a budgeted
// explorer; the probe backend plays the scripted textbook attackers.
// Every backend reports its findings through the same deterministic
// evaluation path (ReplaySpec.run), so a persisted discovery replays
// bit-for-bit: same fresh environment, same RNG streams, same sequence,
// same accuracy.

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"sort"

	"autocat/internal/agents"
	"autocat/internal/analysis"
	"autocat/internal/cache"
	"autocat/internal/detect"
	"autocat/internal/env"
	"autocat/internal/nn"
	"autocat/internal/obs"
	"autocat/internal/rl"
	"autocat/internal/search"
)

// ExplorerKind names an exploration backend.
type ExplorerKind string

// The exploration backends.
const (
	ExplorerPPO    ExplorerKind = "ppo"    // train a policy (the paper's pipeline)
	ExplorerSearch ExplorerKind = "search" // budgeted random/exhaustive prefix search (§VI-A)
	ExplorerProbe  ExplorerKind = "probe"  // scripted textbook attackers (prime+probe, flush+reload)
)

// Explorer is the pluggable exploration pipeline: configuration in,
// replayable attack out. Implementations are self-describing (Kind plus
// a stable parameter hash) so campaign artifacts can attribute every
// discovery to the exact explorer that produced it.
type Explorer interface {
	// Kind names the backend.
	Kind() ExplorerKind
	// ParamsHash is a stable content hash of the backend's parameters.
	ParamsHash() string
	// Explore runs the pipeline against one environment configuration.
	// The context cancels long explorations cooperatively; a cancelled
	// exploration returns the context error.
	Explore(ctx context.Context, cfg env.Config) (*Result, error)
}

// paramsHash renders a parameter struct with %+v and hashes it; struct
// field order is fixed, so the hash is stable across processes.
func paramsHash(v any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ---------------------------------------------------------------------------
// ReplaySpec: the deterministic evaluation recipe shared by backends and
// artifact replay.

// ReplaySpec is a self-contained recipe that reproduces an exploration's
// evaluation on a fresh environment: a trained policy (PPO), a
// distinguishing prefix plus its signature→guess decision table
// (search), or a scripted agent name (probe). Backends produce their
// Eval/Attack/Sequence through ReplaySpec.run, and Replay runs the same
// code on the same fresh-environment construction, so a stored spec
// reproduces the recorded sequence and accuracy bit-for-bit.
type ReplaySpec struct {
	Kind ExplorerKind `json:"kind"`
	// EvalEpisodes sizes the greedy evaluation. Default 256 for PPO, 64
	// for search and probe.
	EvalEpisodes int `json:"eval_episodes,omitempty"`

	// PPO: the backbone shape the weights blob loads into. Weights is
	// the nn.SaveWeights gob; artifact stores keep it in a separate
	// content-addressed blob, so it is excluded from JSON.
	Backbone Backbone `json:"backbone,omitempty"`
	Hidden   []int    `json:"hidden,omitempty"`
	Weights  []byte   `json:"-"`

	// Search: the distinguishing non-guess prefix and the decision table
	// mapping the prefix's hit/miss signature to a guess action.
	Prefix   []int          `json:"prefix,omitempty"`
	Decision map[string]int `json:"decision,omitempty"`

	// Probe: the scripted agent ("primeprobe" or "flushreload").
	Agent string `json:"agent,omitempty"`
}

// Replay reproduces a stored exploration: it rebuilds a fresh
// environment from cfg and reruns the spec's deterministic evaluation.
// Running Replay twice on the same spec and configuration yields
// bit-identical results; this is the contract campaign artifacts are
// verified against.
func Replay(spec ReplaySpec, cfg env.Config) (*Result, error) {
	obs.Replays.Inc()
	switch spec.Kind {
	case ExplorerPPO, "":
		return spec.runPPO(cfg)
	case ExplorerSearch:
		return spec.runSearch(cfg)
	case ExplorerProbe:
		return spec.runProbe(cfg)
	default:
		return nil, fmt.Errorf("core: unknown explorer kind %q", spec.Kind)
	}
}

// runPPO rebuilds the recorded backbone, loads the weights blob, and
// evaluates the greedy policy on a fresh environment.
func (spec ReplaySpec) runPPO(cfg env.Config) (*Result, error) {
	if len(spec.Weights) == 0 {
		return nil, fmt.Errorf("core: ppo replay needs a weights blob")
	}
	e, err := env.New(cfg)
	if err != nil {
		return nil, err
	}
	var net nn.PolicyValueNet
	switch spec.Backbone {
	case MLP, "":
		net = nn.NewMLP(nn.MLPConfig{
			ObsDim:  e.ObsDim(),
			Actions: e.NumActions(),
			Hidden:  spec.Hidden,
		})
	case Transformer:
		net = nn.NewTransformer(nn.TransformerConfig{
			Window:   e.Window(),
			Features: e.FeatureDim(),
			Actions:  e.NumActions(),
		})
	default:
		return nil, fmt.Errorf("core: unknown backbone %q", spec.Backbone)
	}
	if err := nn.LoadWeights(bytes.NewReader(spec.Weights), net); err != nil {
		return nil, err
	}
	n := spec.EvalEpisodes
	if n == 0 {
		n = 256
	}
	res := &Result{Kind: ExplorerPPO, Net: net}
	res.Eval = rl.Evaluate(net, e, n)
	res.Attack, res.AttackOK = rl.ExtractAttack(net, e, 64)
	res.Sequence = e.FormatTrace(res.Attack.Actions)
	res.Category = analysis.Classify(e, res.Attack.Actions)
	for _, p := range net.Params() {
		res.NumParams += len(p.Val)
	}
	return res, nil
}

// searchEnvConfig is the environment variant the search explorer runs
// on: warm-up disabled, because the distinguishing-prefix predicate
// needs episode-independent signatures (random warm-up would make the
// same prefix read differently across episodes).
func searchEnvConfig(cfg env.Config) env.Config {
	cfg.Warmup = -1
	return cfg
}

// runSearch plays the stored prefix + decision table on a fresh
// (warm-up-free) environment: evaluation episodes first, then attack
// extraction, mirroring the PPO order.
func (spec ReplaySpec) runSearch(cfg env.Config) (*Result, error) {
	if len(spec.Prefix) == 0 {
		return nil, fmt.Errorf("core: search replay needs a prefix")
	}
	e, err := env.New(searchEnvConfig(cfg))
	if err != nil {
		return nil, err
	}
	fallback := guessActionFor(e, e.Secrets()[0])
	play := func() rl.Episode {
		return playDecision(e, spec.Prefix, spec.Decision, fallback)
	}
	return evalAndExtract(e, ExplorerSearch, spec.evalEpisodes(), play), nil
}

// runProbe replays the stored scripted agent on a fresh environment.
func (spec ReplaySpec) runProbe(cfg env.Config) (*Result, error) {
	e, err := env.New(cfg)
	if err != nil {
		return nil, err
	}
	agent, err := buildAgent(spec.Agent, cfg)
	if err != nil {
		return nil, err
	}
	play := func() rl.Episode { return playAgent(e, agent) }
	return evalAndExtract(e, ExplorerProbe, spec.evalEpisodes(), play), nil
}

func (spec ReplaySpec) evalEpisodes() int {
	if spec.EvalEpisodes > 0 {
		return spec.EvalEpisodes
	}
	return 64
}

// evalAndExtract aggregates n played episodes into EvalStats, then keeps
// playing (up to 64 more episodes) until one guesses perfectly — the
// same evaluate-then-extract order the PPO pipeline uses, so the
// environment RNG stream advances identically between record and replay.
func evalAndExtract(e *env.Env, kind ExplorerKind, n int, play func() rl.Episode) *Result {
	res := &Result{Kind: kind}
	steps, guesses, correct := 0, 0, 0
	for i := 0; i < n; i++ {
		ep := play()
		res.Eval.Episodes++
		res.Eval.MeanReturn += ep.Return
		steps += len(ep.Actions)
		guesses += ep.Guesses
		correct += ep.Correct
	}
	if res.Eval.Episodes > 0 {
		res.Eval.MeanReturn /= float64(res.Eval.Episodes)
		res.Eval.MeanLength = float64(steps) / float64(res.Eval.Episodes)
	}
	if guesses > 0 {
		res.Eval.Accuracy = float64(correct) / float64(guesses)
	}
	if steps > 0 {
		res.Eval.GuessRate = float64(guesses) / float64(steps)
	}
	for try := 0; try < 64; try++ {
		res.Attack = play()
		if res.Attack.Guesses > 0 && res.Attack.Correct == res.Attack.Guesses {
			res.AttackOK = true
			break
		}
	}
	res.Sequence = e.FormatTrace(res.Attack.Actions)
	res.Category = analysis.Classify(e, res.Attack.Actions)
	return res
}

// guessActionFor maps a secret to its guess action.
func guessActionFor(e *env.Env, s cache.Addr) int {
	if s == env.NoAccess {
		return e.GuessNoneAction()
	}
	return e.GuessAction(s)
}

// playDecision runs one episode of the table policy: play the prefix,
// read its hit/miss signature, guess per the decision table (fallback on
// an unknown signature keeps the policy total under nondeterministic
// targets), and repeat until the episode ends (multi-guess episodes loop).
func playDecision(e *env.Env, prefix []int, decision map[string]int, fallback int) rl.Episode {
	var ep rl.Episode
	e.Reset()
	done := false
	sig := make([]byte, 0, len(prefix))
	for !done {
		sig = sig[:0]
		for _, a := range prefix {
			var r float64
			r, done = e.StepLite(a)
			ep.Actions = append(ep.Actions, a)
			ep.Return += r
			sig = append(sig, e.SignatureChar())
			if done {
				break
			}
		}
		if done {
			break
		}
		act, ok := decision[string(sig)]
		if !ok {
			act = fallback
		}
		var r float64
		r, done = e.StepLite(act)
		ep.Actions = append(ep.Actions, act)
		ep.Return += r
	}
	ep.Trace = append(ep.Trace, e.Trace()...)
	ep.Correct, ep.Guesses = e.EpisodeGuesses()
	return ep
}

// playAgent runs one scripted-agent episode, recording the actions.
func playAgent(e *env.Env, a agents.Agent) rl.Episode {
	var ep rl.Episode
	e.Reset()
	a.Reset()
	done := false
	for !done {
		act := a.Act(e)
		var r float64
		r, done = e.StepLite(act)
		ep.Actions = append(ep.Actions, act)
		ep.Return += r
	}
	ep.Trace = append(ep.Trace, e.Trace()...)
	ep.Correct, ep.Guesses = e.EpisodeGuesses()
	return ep
}

// ---------------------------------------------------------------------------
// PPO backend.

// PPOBackendOptions parameterizes the training backend. The zero value
// selects the same defaults as Config (MLP backbone, 8 environments,
// 256 eval episodes); a zero PPO.Seed is filled from the environment
// seed at Explore time so grid replicates stay independent.
type PPOBackendOptions struct {
	Backbone     Backbone
	Hidden       []int
	Envs         int
	PPO          rl.PPOConfig
	EvalEpisodes int
	// DetectorFactory and TargetFactory mirror Config's per-environment
	// factories; they are excluded from the parameter hash.
	DetectorFactory func() detect.Detector
	TargetFactory   func(i int) (env.Target, error)
}

// PPOBackend adapts the training explorer to the Explorer interface.
type PPOBackend struct{ opts PPOBackendOptions }

// NewPPOBackend builds the training backend.
func NewPPOBackend(opts PPOBackendOptions) *PPOBackend { return &PPOBackend{opts: opts} }

// Kind reports "ppo".
func (b *PPOBackend) Kind() ExplorerKind { return ExplorerPPO }

// ParamsHash hashes the hyperparameters (factories excluded).
func (b *PPOBackend) ParamsHash() string {
	return paramsHash(struct {
		Backbone     Backbone
		Hidden       []int
		Envs         int
		PPO          rl.PPOConfig
		EvalEpisodes int
	}{b.opts.Backbone, b.opts.Hidden, b.opts.Envs, b.opts.PPO, b.opts.EvalEpisodes})
}

// Explore trains a policy on the configuration and extracts the attack;
// the result carries the trained net and its replay recipe.
func (b *PPOBackend) Explore(ctx context.Context, cfg env.Config) (*Result, error) {
	obs.Explorations.Inc()
	c := Config{
		Env:             cfg,
		Envs:            b.opts.Envs,
		Backbone:        b.opts.Backbone,
		Hidden:          b.opts.Hidden,
		PPO:             b.opts.PPO,
		EvalEpisodes:    b.opts.EvalEpisodes,
		DetectorFactory: b.opts.DetectorFactory,
		TargetFactory:   b.opts.TargetFactory,
	}
	if c.PPO.Seed == 0 {
		c.PPO.Seed = cfg.Seed
	}
	ex, err := New(c)
	if err != nil {
		return nil, err
	}
	res := ex.RunContext(ctx)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Search backend.

// SearchBackendOptions parameterizes the budgeted prefix search.
type SearchBackendOptions struct {
	// Exhaustive enumerates prefixes lexicographically instead of
	// sampling them.
	Exhaustive bool
	// MinLen/MaxLen bound the prefix lengths tried, shortest first.
	// Defaults: 1 and min(window-1, 2·attackerAddrs+1) — the prime+probe
	// prefix length for the configured associativity, capped so a guess
	// still fits inside the episode window.
	MinLen, MaxLen int
	// Budget is the candidate-sequence budget per length. Default 4096.
	Budget int
	// Seed drives random sampling; 0 uses the environment seed.
	Seed int64
	// EvalEpisodes sizes the table-policy evaluation. Default 64.
	EvalEpisodes int
}

// maxSearchWorkers caps the compute tokens one search exploration takes:
// beyond the per-first-action shard count of typical configs the extra
// environments would idle, and campaign workers sharing the pool still
// need tokens for their own jobs.
const maxSearchWorkers = 8

// SearchBackend is the cheap non-learning explorer: it searches for a
// prefix whose hit/miss signature distinguishes every secret, converts
// it into a signature→guess decision table, and evaluates that table
// policy. It runs on a warm-up-free variant of the configuration (the
// predicate needs episode-independent signatures), so it is a screen:
// configurations it solves need no training, configurations it leaves
// at chance escalate to the PPO backend.
type SearchBackend struct{ opts SearchBackendOptions }

// NewSearchBackend builds the search backend.
func NewSearchBackend(opts SearchBackendOptions) *SearchBackend { return &SearchBackend{opts: opts} }

// Kind reports "search".
func (b *SearchBackend) Kind() ExplorerKind { return ExplorerSearch }

// ParamsHash hashes the search budget parameters.
func (b *SearchBackend) ParamsHash() string { return paramsHash(b.opts) }

// Explore searches prefixes of increasing length until one
// distinguishes every secret or the budget is exhausted.
func (b *SearchBackend) Explore(ctx context.Context, cfg env.Config) (*Result, error) {
	obs.Explorations.Inc()
	opts := b.opts
	scfg := searchEnvConfig(cfg)
	e, err := env.New(scfg)
	if err != nil {
		return nil, err
	}
	if opts.Budget <= 0 {
		opts.Budget = 4096
	}
	if opts.MinLen <= 0 {
		opts.MinLen = 1
	}
	if opts.MaxLen <= 0 {
		nAtt := int(cfg.AttackerHi-cfg.AttackerLo) + 1
		opts.MaxLen = 2*nAtt + 1
		if limit := e.MaxSteps() - 1; opts.MaxLen > limit {
			opts.MaxLen = limit
		}
	}
	if opts.Seed == 0 {
		opts.Seed = cfg.Seed
	}

	// Shard the candidate space across the compute-token worker pool:
	// the caller counts as one worker and each extra token adds a
	// walker. Shard→subtree assignment inside the search is
	// deterministic, so results are independent of how many tokens were
	// free (the same invariance contract as the PPO kernels). The
	// re-simulating scan is sequential, so it takes no extra tokens.
	extra := 0
	for search.Incremental(e) && extra < maxSearchWorkers-1 && nn.TryAcquireExtraToken() {
		extra++
	}
	defer func() {
		for ; extra > 0; extra-- {
			nn.ReleaseComputeToken()
		}
	}()

	// The walker steps only its memo's scratch siblings, never e, and a
	// memo edge depends on (state, action) alone, so one memo serves
	// every length: a transition simulated at one length is a lookup at
	// the next. The re-simulating scan steps the env it is given, and on
	// RNG-driven configs (random replacement, skew, CEASER rekeying) the
	// cache's RNG streams survive Reset, so a shared env would start each
	// length, and buildDecision, from the stream state the previous scan
	// left behind: every length scans a fresh env.
	var memo *search.Memo
	if search.Incremental(e) {
		memo = search.NewMemo(e)
	}
	total := &search.Result{}
	for length := opts.MinLen; length <= opts.MaxLen; length++ {
		seed := opts.Seed + int64(length)
		var r search.Result
		switch {
		case memo != nil && opts.Exhaustive:
			r = memo.ExhaustiveSearch(ctx, length, opts.Budget, 1+extra)
		case memo != nil:
			r = memo.RandomSearch(ctx, length, opts.Budget, seed, 1+extra)
		default:
			se, err := env.New(scfg)
			if err != nil {
				return nil, err
			}
			if opts.Exhaustive {
				r = search.ExhaustiveSearchN(ctx, se, length, opts.Budget, 1)
			} else {
				r = search.RandomSearchN(ctx, se, length, opts.Budget, seed, 1)
			}
		}
		total.Sequences += r.Sequences
		total.Steps += r.Steps
		if r.Found {
			total.Found = true
			total.Attack = r.Attack
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if !total.Found {
		// Stayed at chance: no distinguishing prefix within budget.
		return &Result{Kind: ExplorerSearch, Search: total}, nil
	}

	spec := &ReplaySpec{
		Kind:         ExplorerSearch,
		EvalEpisodes: opts.EvalEpisodes,
		Prefix:       total.Attack,
		Decision:     buildDecision(e, total.Attack),
	}
	res, err := Replay(*spec, cfg)
	if err != nil {
		return nil, err
	}
	res.Replay = spec
	res.Search = total
	return res, nil
}

// buildDecision maps each secret's prefix signature to that secret's
// guess action. The prefix distinguishes every secret, so signatures are
// unique by construction.
func buildDecision(e *env.Env, prefix []int) map[string]int {
	decision := make(map[string]int, len(e.Secrets()))
	for _, s := range e.Secrets() {
		e.Reset()
		e.ForceSecret(s)
		sig := make([]byte, 0, len(prefix))
		done := false
		for _, a := range prefix {
			_, done = e.StepLite(a)
			sig = append(sig, e.SignatureChar())
			if done {
				break
			}
		}
		if done {
			continue // prefix ended the episode; unreachable for a distinguishing prefix
		}
		decision[string(sig)] = guessActionFor(e, s)
	}
	return decision
}

// ---------------------------------------------------------------------------
// Probe backend.

// The scripted agents the probe backend knows.
const (
	AgentPrimeProbe  = "primeprobe"
	AgentFlushReload = "flushreload"
)

// ProbeBackendOptions parameterizes the scripted-agent prober.
type ProbeBackendOptions struct {
	// Episodes sizes each agent's evaluation. Default 64.
	Episodes int
}

// ProbeBackend plays every applicable textbook attacker against the
// configuration and keeps the most accurate one: the CacheQuery-style
// "does a known attack already work here" screen.
type ProbeBackend struct{ opts ProbeBackendOptions }

// NewProbeBackend builds the prober.
func NewProbeBackend(opts ProbeBackendOptions) *ProbeBackend { return &ProbeBackend{opts: opts} }

// Kind reports "probe".
func (b *ProbeBackend) Kind() ExplorerKind { return ExplorerProbe }

// ParamsHash hashes the prober parameters.
func (b *ProbeBackend) ParamsHash() string { return paramsHash(b.opts) }

// Explore evaluates each applicable scripted agent on its own fresh
// environment and returns the best result (ties keep the first agent in
// name order, so the choice is deterministic).
func (b *ProbeBackend) Explore(ctx context.Context, cfg env.Config) (*Result, error) {
	obs.Explorations.Inc()
	episodes := b.opts.Episodes
	if episodes <= 0 {
		episodes = 64
	}
	names := applicableAgents(cfg)
	var best *Result
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		spec := &ReplaySpec{Kind: ExplorerProbe, Agent: name, EvalEpisodes: episodes}
		res, err := Replay(*spec, cfg)
		if err != nil {
			return nil, err
		}
		res.Replay = spec
		if best == nil || res.Eval.Accuracy > best.Eval.Accuracy {
			best = res
		}
	}
	if best == nil {
		// No scripted attack applies (e.g. a flushless shared-memory
		// configuration): report chance.
		return &Result{Kind: ExplorerProbe}, nil
	}
	return best, nil
}

// applicableAgents lists the scripted agents that can legally run on the
// configuration, in deterministic order.
func applicableAgents(cfg env.Config) []string {
	var names []string
	// Flush+reload flushes and reloads victim addresses through attacker
	// actions, so it needs the flush instruction and an attacker range
	// covering the victim's.
	if cfg.FlushEnable && cfg.AttackerLo <= cfg.VictimLo && cfg.AttackerHi >= cfg.VictimHi {
		names = append(names, AgentFlushReload)
	}
	// Prime+probe needs the set count, which only the built-in simulator
	// configuration exposes.
	if cfg.Target == nil && cfg.Cache.NumBlocks > 0 {
		names = append(names, AgentPrimeProbe)
	}
	sort.Strings(names)
	return names
}

// buildAgent instantiates a scripted agent by name for the configuration.
func buildAgent(name string, cfg env.Config) (agents.Agent, error) {
	switch name {
	case AgentPrimeProbe:
		ways := cfg.Cache.NumWays
		if ways <= 0 {
			ways = 1
		}
		numSets := cfg.Cache.NumBlocks / ways
		if numSets < 1 {
			numSets = 1
		}
		return agents.NewPrimeProbe(numSets), nil
	case AgentFlushReload:
		return agents.NewFlushReload(), nil
	default:
		return nil, fmt.Errorf("core: unknown probe agent %q", name)
	}
}
