package core

// The Explorer interface and its three backends: the paper's framework
// (Figure 2a) treats "find an attack" as one pipeline — configuration
// in, replayable attack sequence out — and this file makes the pipeline
// pluggable. The PPO backend wraps the training explorer; the search
// backend lifts the §VI-A random/exhaustive baselines into a budgeted
// explorer; the probe backend plays the scripted textbook attackers.
// Every backend reports its findings through the same deterministic
// evaluation path (Replay, which ends in evaluate), so a persisted
// discovery replays bit-for-bit: same fresh environment, same RNG
// streams, same sequence, same accuracy.

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"sort"

	"autocat/internal/agents"
	"autocat/internal/analysis"
	"autocat/internal/cache"
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
// Eval/Attack/Sequence through Replay, and artifact replay runs the same
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
	net, err := newNet(spec.Backbone, spec.Hidden, e, 0)
	if err != nil {
		return nil, err
	}
	if err := nn.LoadWeights(bytes.NewReader(spec.Weights), net); err != nil {
		return nil, err
	}
	n := spec.EvalEpisodes
	if n == 0 {
		n = 256
	}
	return evaluateNet(net, e, n), nil
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
	return evaluate(ExplorerSearch, e, spec.evalEpisodes(), func() rl.Episode {
		return playDecision(e, spec.Prefix, spec.Decision, fallback)
	}), nil
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
	return evaluate(ExplorerProbe, e, spec.evalEpisodes(), func() rl.Episode {
		return agents.Play(e, agent)
	}), nil
}

func (spec ReplaySpec) evalEpisodes() int {
	if spec.EvalEpisodes > 0 {
		return spec.EvalEpisodes
	}
	return 64
}

// evaluate scores play on e: n episodes aggregated by rl.Evaluate, then
// up to 64 more until one guesses perfectly (rl.ExtractAttack), written
// in arrow notation and classified. Every backend and Replay end here,
// in this evaluate-then-extract order, so the environment RNG stream
// advances identically between record and replay, and every replay
// plays the unshaped game.
func evaluate(kind ExplorerKind, e *env.Env, n int, play rl.Player) *Result {
	res := &Result{Kind: kind, Eval: rl.Evaluate(e, n, play)}
	res.Attack, res.AttackOK = rl.ExtractAttack(e, 64, play)
	res.Sequence = e.FormatTrace(res.Attack.Actions)
	res.Category = analysis.Classify(e, res.Attack.Actions)
	return res
}

// evaluateNet is evaluate for a trained net's greedy policy; the result
// also carries the net and its parameter count.
func evaluateNet(net nn.PolicyValueNet, e *env.Env, n int) *Result {
	res := evaluate(ExplorerPPO, e, n, rl.Greedy(net, e))
	res.Net = net
	for _, p := range net.Params() {
		res.NumParams += len(p.Val)
	}
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
			r, done = e.Step(a)
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
		r, done = e.Step(act)
		ep.Actions = append(ep.Actions, act)
		ep.Return += r
	}
	ep.Correct, ep.Guesses = e.EpisodeGuesses()
	return ep
}

// ---------------------------------------------------------------------------
// PPO backend.

// PPOBackend adapts the training explorer to the Explorer interface. It
// holds a Config whose Env is ignored: Explore supplies the environment
// per call. The zero value selects Config's defaults (MLP backbone, 8
// environments, 256 eval episodes); a zero PPO.Seed is filled from the
// environment seed at Explore time so grid replicates stay independent.
type PPOBackend struct{ cfg Config }

// NewPPOBackend builds the training backend.
func NewPPOBackend(cfg Config) *PPOBackend { return &PPOBackend{cfg: cfg} }

// Kind reports "ppo".
func (b *PPOBackend) Kind() ExplorerKind { return ExplorerPPO }

// ParamsHash hashes the hyperparameters (Env and the factories
// excluded).
func (b *PPOBackend) ParamsHash() string {
	return paramsHash(struct {
		Backbone     Backbone
		Hidden       []int
		Envs         int
		PPO          rl.PPOConfig
		EvalEpisodes int
	}{b.cfg.Backbone, b.cfg.Hidden, b.cfg.Envs, b.cfg.PPO, b.cfg.EvalEpisodes})
}

// Explore trains a policy on the configuration and extracts the attack;
// the result carries the trained net and its replay recipe.
func (b *PPOBackend) Explore(ctx context.Context, cfg env.Config) (*Result, error) {
	obs.Explorations.Inc()
	c := b.cfg
	c.Env = cfg
	if c.PPO.Seed == 0 {
		c.PPO.Seed = cfg.Seed
	}
	ex, err := New(c)
	if err != nil {
		return nil, err
	}
	return ex.Run(ctx), ctx.Err()
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
	e, err := env.New(searchEnvConfig(cfg))
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

	// One searcher serves every length. On walker configs its memo
	// carries the transitions simulated at one length to the next, and
	// Release files it for the next exploration of the same config; on
	// RNG-driven configs (random replacement, skew, CEASER rekeying) each
	// search scans a fresh env, so every length, and buildDecision on e,
	// start from the RNG streams a new env starts with.
	s := search.NewSearcher(e)
	defer s.Release()

	// Shard the candidate space across the compute-token worker pool:
	// the caller counts as one worker and each extra token adds a
	// walker. Shard→subtree assignment inside the search is
	// deterministic, so results are independent of how many tokens were
	// free (the same invariance contract as the PPO kernels). The
	// re-simulating scan is sequential, so it takes no extra tokens.
	extra := 0
	for s.Parallel() && extra < maxSearchWorkers-1 && nn.TryAcquireExtraToken() {
		extra++
	}
	defer func() {
		for ; extra > 0; extra-- {
			nn.ReleaseComputeToken()
		}
	}()

	total := &search.Result{}
	for length := opts.MinLen; length <= opts.MaxLen; length++ {
		var r search.Result
		if opts.Exhaustive {
			r = s.Exhaustive(ctx, length, opts.Budget, 1+extra)
		} else {
			r = s.Random(ctx, length, opts.Budget, opts.Seed+int64(length), 1+extra)
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
// guess action. On walker configs a prefix's signatures depend only on
// the secret, so the ones the search told apart stay unique here. On
// scan configs (random replacement, skew, CEASER rekeying) the scan
// accepted the prefix under whatever RNG state it had reached, and
// replayed here the signatures can collide: the table then holds fewer
// signatures than there are secrets, and a later secret overwrites an
// earlier one's guess. ROADMAP item 2 tracks the fix.
func buildDecision(e *env.Env, prefix []int) map[string]int {
	decision := make(map[string]int, len(e.Secrets()))
	for _, s := range e.Secrets() {
		e.Reset()
		e.ForceSecret(s)
		sig := make([]byte, 0, len(prefix))
		done := false
		for _, a := range prefix {
			_, done = e.Step(a)
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
