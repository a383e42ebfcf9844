// Package autocat is a from-scratch Go reproduction of "AutoCAT:
// Reinforcement Learning for Automated Exploration of Cache-Timing
// Attacks" (HPCA 2023): a framework that formulates cache-timing attacks
// as a guessing game and trains a PPO agent to discover attack sequences
// against simulated caches, black-box cache models, and
// detection/defense-hardened targets.
//
// This package is the public API facade; the implementation lives in
// internal packages. A minimal exploration looks like:
//
//	res, err := autocat.Explore(autocat.ExploreConfig{
//	    Env: autocat.EnvConfig{
//	        Cache:      autocat.CacheConfig{NumBlocks: 4, NumWays: 4, Policy: autocat.LRU},
//	        AttackerLo: 0, AttackerHi: 3,
//	        VictimLo: 0, VictimHi: 0,
//	        FlushEnable:    true,
//	        VictimNoAccess: true,
//	    },
//	    PPO: autocat.PPOConfig{MaxEpochs: 80},
//	})
//	fmt.Println(res.Sequence, res.Category)
//
// See the examples/ directory for runnable programs, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for the paper-vs-measured record.
package autocat

import (
	"context"
	"io"

	"autocat/internal/agents"
	"autocat/internal/analysis"
	"autocat/internal/cache"
	"autocat/internal/campaign"
	"autocat/internal/core"
	"autocat/internal/covert"
	"autocat/internal/detect"
	"autocat/internal/env"
	"autocat/internal/faults"
	"autocat/internal/hw"
	"autocat/internal/nn"
	"autocat/internal/obs"
	"autocat/internal/rl"
	"autocat/internal/search"
	"autocat/internal/serve"
	"autocat/internal/trace"
)

// Cache simulator surface (internal/cache).
type (
	// CacheConfig describes a single-level simulated cache (Table II).
	CacheConfig = cache.Config
	// Cache is the software cache simulator.
	Cache = cache.Cache
	// Addr is a cache-line-granular address.
	Addr = cache.Addr
	// PolicyKind names a replacement policy.
	PolicyKind = cache.PolicyKind
	// PrefetcherKind names a prefetcher model.
	PrefetcherKind = cache.PrefetcherKind
	// DefenseConfig selects and parameterizes a cache defense (CEASER
	// keyed rekeying, skewed multi-hash, way partitioning).
	DefenseConfig = cache.DefenseConfig
)

// Replacement policies and prefetchers.
const (
	LRU  = cache.LRU
	PLRU = cache.PLRU

	NoPrefetch = cache.NoPrefetch
	NextLine   = cache.NextLine

	DomainAttacker = cache.DomainAttacker
	DomainVictim   = cache.DomainVictim
)

// Index-mapping defenses (CacheConfig.Defense.Kind).
const (
	DefenseCEASER    = cache.DefenseCEASER
	DefenseSkew      = cache.DefenseSkew
	DefensePartition = cache.DefensePartition
)

// NewCache builds a cache simulator; it panics on invalid configuration
// (call CacheConfig.Validate first for error handling).
func NewCache(cfg CacheConfig) *Cache { return cache.New(cfg) }

// Guessing-game environment surface (internal/env).
type (
	// EnvConfig assembles one guessing game (Table II options).
	EnvConfig = env.Config
	// Env is the Gym-style cache guessing game.
	Env = env.Env
	// Rewards mirrors the reward options of Table II.
	Rewards = env.Rewards
	// Shaping configures useless-action reward shaping (training-only
	// penalties for no-op accesses, redundant flushes, and wasted victim
	// triggers).
	Shaping = env.Shaping
)

// NoAccess is the sentinel secret for "the victim makes no access".
const NoAccess = env.NoAccess

// KindVictim is the action kind that triggers the victim's access.
const KindVictim = env.KindVictim

// NewEnv builds a guessing-game environment.
func NewEnv(cfg EnvConfig) (*Env, error) { return env.New(cfg) }

// MustEnv builds an environment and panics on configuration errors; a
// convenience for examples and tests.
func MustEnv(cfg EnvConfig) *Env {
	e, err := env.New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// DefaultRewards returns the paper's reward values (+1 / -1 / -0.01).
func DefaultRewards() Rewards { return env.DefaultRewards() }

// DefaultShaping returns the tuned useless-action shaping penalties.
func DefaultShaping() Shaping { return env.DefaultShaping() }

// RL engine surface (internal/rl, internal/nn).
type (
	// PPOConfig carries the PPO hyperparameters.
	PPOConfig = rl.PPOConfig
	// Trainer is the synchronous parallel PPO trainer.
	Trainer = rl.Trainer
	// EvalStats aggregates greedy-policy evaluation.
	EvalStats = rl.EvalStats
	// Episode is one replayed episode.
	Episode = rl.Episode
	// PolicyValueNet is the policy/value network contract.
	PolicyValueNet = nn.PolicyValueNet
	// Mat is the dense row-major matrix used by the batched network API
	// (ApplyBatch/GradBatch observation and gradient batches).
	Mat = nn.Mat
	// MLPConfig sizes the MLP backbone.
	MLPConfig = nn.MLPConfig
	// TransformerConfig sizes the Transformer-encoder backbone.
	TransformerConfig = nn.TransformerConfig
)

// NewTrainer wires a policy network to parallel environments.
func NewTrainer(net PolicyValueNet, envs []*Env, cfg PPOConfig) (*Trainer, error) {
	return rl.NewTrainer(net, envs, cfg)
}

// NewMLP builds the MLP policy/value network.
func NewMLP(cfg MLPConfig) PolicyValueNet { return nn.NewMLP(cfg) }

// NewTransformer builds the Transformer-encoder policy/value network (the
// paper's backbone).
func NewTransformer(cfg TransformerConfig) PolicyValueNet { return nn.NewTransformer(cfg) }

// Evaluate replays n greedy episodes and aggregates statistics.
func Evaluate(net PolicyValueNet, e *Env, n int) EvalStats { return rl.Evaluate(net, e, n) }

// ReplayGreedy rolls out one deterministic episode.
func ReplayGreedy(net PolicyValueNet, e *Env) Episode { return rl.ReplayGreedy(net, e) }

// Explorer surface (internal/core) — the full AutoCAT pipeline.
type (
	// ExploreConfig assembles one exploration run.
	ExploreConfig = core.Config
	// ExploreResult is the outcome: attack sequence, category, stats.
	ExploreResult = core.Result
	// SearchBackendOptions parameterizes the budgeted prefix-search
	// backend.
	SearchBackendOptions = core.SearchBackendOptions
	// Backbone selects the policy architecture.
	Backbone = core.Backbone
)

// Policy backbones.
const (
	BackboneMLP         = core.MLP
	BackboneTransformer = core.Transformer
)

// Exploration backends.
const (
	ExplorerPPO    = core.ExplorerPPO
	ExplorerSearch = core.ExplorerSearch
	ExplorerProbe  = core.ExplorerProbe
)

// Explore trains an agent on the configuration, extracts the attack
// sequence by deterministic replay, and classifies it.
func Explore(cfg ExploreConfig) (*ExploreResult, error) { return core.Explore(cfg) }

// Detection surface (internal/detect, internal/trace).
type (
	// Detector screens an episode of cache activity.
	Detector = detect.Detector
	// MissBased flags victim cache misses (µarch-statistics detection).
	MissBased = detect.MissBased
	// CCHunter is the autocorrelation detector.
	CCHunter = detect.CCHunter
	// DetectorAccess is the per-step record detectors consume.
	DetectorAccess = detect.Access
	// BenignConfig configures the synthetic benign workload generator.
	BenignConfig = trace.BenignConfig
	// MemAccess is one element of a domain-attributed memory trace.
	MemAccess = trace.Access
)

// NewMissBased returns a victim-miss detector.
func NewMissBased() *MissBased { return detect.NewMissBased() }

// NewCCHunter returns an autocorrelation detector with the paper's
// defaults (P=30, threshold 0.75).
func NewCCHunter() *CCHunter { return detect.NewCCHunter() }

// BenignSuite generates n synthetic benign traces (the SPEC2017 stand-in).
func BenignSuite(n int, cfg BenignConfig) [][]MemAccess { return trace.BenignSuite(n, cfg) }

// Scripted baselines (internal/agents).
type (
	// ScriptedAgent is a hand-written attack policy.
	ScriptedAgent = agents.Agent
	// PrimeProbeAgent is the textbook prime+probe loop.
	PrimeProbeAgent = agents.PrimeProbe
)

// NewPrimeProbe builds the textbook prime+probe agent.
func NewPrimeProbe(numSets int) *PrimeProbeAgent { return agents.NewPrimeProbe(numSets) }

// RunScripted plays n episodes of a scripted agent.
func RunScripted(e *Env, a ScriptedAgent, n int) agents.Result { return agents.Run(e, a, n) }

// Black-box hardware surface (internal/hw).
type (
	// MachineSpec describes one black-box cache level (Table III).
	MachineSpec = hw.Spec
	// BlackBox is a simulated black-box machine implementing Target.
	BlackBox = hw.BlackBox
)

// NewBlackBox builds a simulated black-box cache level.
func NewBlackBox(spec MachineSpec, seed int64) (*BlackBox, error) { return hw.NewBlackBox(spec, seed) }

// Table3Specs returns the simulated machine rows of Table III.
func Table3Specs() []MachineSpec { return hw.Table3Specs() }

// Covert channel surface (internal/covert).
type (
	// CovertChannel transmits symbols through one cache set.
	CovertChannel = covert.Channel
	// ChannelConfig sizes an LRU-state channel.
	ChannelConfig = covert.ChannelConfig
	// CovertMachine models one Table X processor.
	CovertMachine = covert.Machine
	// Transmission summarizes one bit-string transfer.
	Transmission = covert.Transmission
)

// NewStealthyStreamline builds the StealthyStreamline channel (Figure 4c).
func NewStealthyStreamline(cfg ChannelConfig) (CovertChannel, error) {
	return covert.NewStealthyStreamline(cfg)
}

// CovertMachines returns the Table X machine catalogue.
func CovertMachines() []CovertMachine { return covert.Machines() }

// StealthyStateTrace renders the cache-state evolution of one
// StealthyStreamline round (the paper's Figure 4d walk-through).
func StealthyStateTrace(cfg ChannelConfig, symbol int) ([]string, error) {
	ch, err := covert.NewStealthyStreamline(cfg)
	if err != nil {
		return nil, err
	}
	return ch.StateTrace(symbol), nil
}

// MeasureCovert transmits random bit strings on a machine model and
// reports bit rate and error rate (Table X).
func MeasureCovert(m CovertMachine, stealthy bool, symbolBits, nbits, repeats int, seed int64) (Transmission, error) {
	return covert.MeasureOnMachine(m, stealthy, symbolBits, nbits, repeats, seed)
}

// Campaign surface (internal/campaign) — parallel scenario-sweep
// orchestration with a sharded, deduplicating attack catalog.
type (
	// CampaignSpec declares a scenario grid plus explicit scenarios.
	CampaignSpec = campaign.Spec
	// CampaignAddrRange is an inclusive address range used as a grid axis.
	CampaignAddrRange = campaign.AddrRange
	// CampaignJob is one schedulable unit of an expanded campaign.
	CampaignJob = campaign.Job
	// CampaignJobResult is the persisted outcome of one job.
	CampaignJobResult = campaign.JobResult
	// CampaignRunConfig controls workers, checkpointing, and resume.
	CampaignRunConfig = campaign.RunConfig
	// CampaignResult is a completed (or interrupted) campaign.
	CampaignResult = campaign.Result
	// CampaignProgress is the one campaign lifecycle event: "start",
	// "job", "novel_attack", then "done" (never dropped).
	CampaignProgress = campaign.Progress
	// Catalog is the sharded, deduplicating attack store.
	Catalog = campaign.Catalog
	// CatalogOptions bounds a catalog's memory (entry capacity with LRU
	// eviction, sliding per-entry TTL); the zero value is unbounded.
	CatalogOptions = campaign.CatalogOptions
	// CampaignRunnerOptions configures the explorer runner (scale,
	// artifact store, cheap-backend budgets).
	CampaignRunnerOptions = campaign.RunnerOptions
	// ArtifactStore is the append-only artifact directory.
	ArtifactStore = campaign.ArtifactStore
	// ArtifactReplayReport is the outcome of verifying one artifact.
	ArtifactReplayReport = campaign.ReplayReport
	// CampaignStagedResult is a completed staged-escalation campaign.
	CampaignStagedResult = campaign.StagedResult
	// CampaignRetryPolicy bounds re-runs of transiently failed jobs
	// (attempt cap + deterministic exponential backoff).
	CampaignRetryPolicy = campaign.RetryPolicy
)

// Campaign explorer-axis values (CampaignSpec.Explorers and
// CampaignScenario.Explorer); "" and "ppo" select the default training
// backend.
const (
	CampaignExplorerPPO    = campaign.ExplorerPPO
	CampaignExplorerSearch = campaign.ExplorerSearch
	// CampaignExplorerShapedPPO is the staged-escalation stage kind that
	// runs PPO with default reward shaping; valid in RunStagedCampaign
	// stage lists only (use CampaignSpec.Shapings on the grid axis).
	CampaignExplorerShapedPPO = campaign.ExplorerShapedPPO
)

// OpenArtifactStore creates (or reopens) a content-addressed attack
// artifact directory.
func OpenArtifactStore(dir string) (*ArtifactStore, error) {
	return campaign.OpenArtifactStore(dir)
}

// NewCampaignRunner builds the production CampaignRunConfig.Runner (a
// nil Runner means zero options): each job runs its scenario's explorer
// backend, and with opts.Artifacts set every reliable attack persists
// there. The caller opens and closes the store.
func NewCampaignRunner(opts CampaignRunnerOptions) func(context.Context, CampaignJob) CampaignJobResult {
	return campaign.NewExplorerRunner(opts)
}

// RunStagedCampaign escalates a campaign through the given explorer
// kinds: stage 1 runs every job with the first kind, later stages
// re-run only the jobs the previous stage left at chance.
func RunStagedCampaign(ctx context.Context, spec CampaignSpec, rc CampaignRunConfig, explorers []string) (*CampaignStagedResult, error) {
	return campaign.RunStaged(ctx, spec, rc, explorers)
}

// RunCampaign expands the spec and executes it on a bounded worker pool;
// see campaign.Run. Cancelling the context stops dispatch, and rerunning
// with CampaignRunConfig.Resume skips checkpointed jobs.
func RunCampaign(ctx context.Context, spec CampaignSpec, rc CampaignRunConfig) (*CampaignResult, error) {
	return campaign.Run(ctx, spec, rc)
}

// Campaign service: campaign execution behind a long-running HTTP
// front-end (see internal/serve and cmd/autocat-serve).
type (
	// ServeConfig parameterizes the campaign service: concurrent
	// campaign cap, shared-catalog bounds, and the cross-tenant dedup
	// memo size.
	ServeConfig = serve.Config
	// CampaignServer multiplexes tenant campaigns over one process,
	// streaming job results and novel-attack events per request.
	CampaignServer = serve.Server
)

// NewCampaignServer builds the campaign service with its shared bounded
// catalog and singleflight dedup layer; mount Handler() on an
// http.Server.
func NewCampaignServer(cfg ServeConfig) *CampaignServer { return serve.New(cfg) }

// CampaignWriterProgress returns a progress callback printing one line
// per "job" event, plus a resume summary at "start", to w.
func CampaignWriterProgress(w io.Writer) func(CampaignProgress) {
	return campaign.WriterProgress(w)
}

// Fault injection (internal/faults): the seeded, deterministic chaos
// harness behind the campaign fault-tolerance tests. Disarmed — the
// default — every site check is a nil pointer load.

// FaultsEnvVar is the environment variable the CLIs arm fault plans
// from (e.g. AUTOCAT_FAULTS="checkpoint.write:nth=7;runner.panic:nth=3").
const FaultsEnvVar = faults.EnvVar

// ArmFaultsFromEnv arms the plan in $AUTOCAT_FAULTS, if set, returning
// the armed plan string ("" when unset).
func ArmFaultsFromEnv() (string, error) { return faults.ArmFromEnv() }

// Telemetry surface (internal/obs): the per-run event journal, the
// metrics snapshot, and the live debug endpoint.
type (
	// Journal is an append-only JSONL telemetry sink; attach one to
	// CampaignRunConfig.Journal to record campaign/job/epoch events.
	Journal = obs.Journal
	// TelemetryEvent is one journal record.
	TelemetryEvent = obs.Event
	// DebugServer serves /metrics and /debug/pprof for a live process.
	DebugServer = obs.DebugServer
	// RunReport is the digest `autocat stats` builds from a journal.
	RunReport = obs.RunReport
)

// OpenJournal opens (creating if needed) an append-mode telemetry
// journal, terminating any torn tail left by a crashed run.
func OpenJournal(path string) (*Journal, error) { return obs.OpenJournal(path) }

// ReadJournal parses a telemetry journal, skipping malformed lines and
// reporting how many were skipped.
func ReadJournal(path string) ([]TelemetryEvent, int, error) { return obs.ReadJournal(path) }

// BuildRunReport digests journal events into a run report; normalize,
// when non-nil, canonicalises scenario names before aggregation.
func BuildRunReport(events []TelemetryEvent, normalize func(string) string) *RunReport {
	return obs.BuildRunReport(events, normalize)
}

// StartDebugServer serves a JSON metrics snapshot at /metrics and the
// pprof handlers at /debug/pprof on addr until Close.
func StartDebugServer(addr string) (*DebugServer, error) { return obs.StartDebugServer(addr) }

// Analysis and search surfaces.
type (
	// AttackCategory labels a sequence with the Table I taxonomy.
	AttackCategory = analysis.Category
	// SearchResult summarizes a brute-force / random search run.
	SearchResult = search.Result
)

// Classify assigns an attack category to a replayed sequence.
func Classify(e *Env, actions []int) AttackCategory { return analysis.Classify(e, actions) }

// RandomSearch samples random prefixes until one distinguishes every
// secret (the §VI-A baseline). Cancelling the context aborts the search
// promptly with the partial result.
func RandomSearch(ctx context.Context, e *Env, length, budget int, seed int64) SearchResult {
	return search.RandomSearch(ctx, e, length, budget, seed)
}

// ExpectedSearchTrials returns M = 2(N+1)^(2N+1)/(N!)², the paper's
// random-search cost estimate for an N-way prime+probe.
func ExpectedSearchTrials(n int) float64 { return search.ExpectedTrials(n) }
