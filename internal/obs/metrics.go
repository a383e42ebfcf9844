package obs

// The built-in metric set, pre-registered at init so instrumented code
// holds direct pointers and the bump path never consults the registry.
// Naming: <layer>.<noun>_total for counters, <layer>.<noun>_ns for
// duration histograms.
var (
	// Step loop (flushed per completed episode from internal/env).
	EnvSteps          = NewCounter("env.steps_total")
	EnvEpisodes       = NewCounter("env.episodes_total")
	EnvGuesses        = NewCounter("env.guesses_total")
	EnvCorrectGuesses = NewCounter("env.correct_guesses_total")

	// Useless-action classification (reward shaping; counted whether or
	// not shaping penalties are enabled, so shaped and plain runs report
	// comparable rates).
	EnvNoOpAccesses   = NewCounter("env.noop_accesses_total")
	EnvRedundantFlush = NewCounter("env.redundant_flushes_total")
	EnvWastedTriggers = NewCounter("env.wasted_triggers_total")
	EnvShapingPenalty = NewCounter("env.shaping_penalized_steps_total")

	// Cache model (flushed on cache.Reset from internal/cache).
	CacheAccesses = NewCounter("cache.accesses_total")
	CacheHits     = NewCounter("cache.hits_total")
	CacheMisses   = NewCounter("cache.misses_total")
	CacheFlushes  = NewCounter("cache.flushes_total")
	CacheRekeys   = NewCounter("cache.rekeys_total")

	// Compute-token scheduler (internal/nn).
	SchedAcquires     = NewCounter("sched.token_acquires_total")
	SchedWaits        = NewCounter("sched.token_waits_total")
	SchedWaitNs       = NewHistogram("sched.token_wait_ns")
	SchedExtraGrants  = NewCounter("sched.extra_token_grants_total")
	SchedExtraDenials = NewCounter("sched.extra_token_denials_total")

	// PPO trainer (internal/rl).
	PPOEpochs  = NewCounter("ppo.epochs_total")
	PPOSteps   = NewCounter("ppo.steps_total")
	PPOEpochNs = NewHistogram("ppo.epoch_ns")

	// Explorer backends (internal/core).
	Explorations = NewCounter("core.explorations_total")
	Replays      = NewCounter("core.replays_total")

	// Prefix search (internal/search), bumped once per search return:
	// candidates evaluated, steps charged to Results, Step calls
	// actually run (memo misses on the walker, every step on the
	// scan), the walker's joint-node lookups (one per descend) and the
	// ones it missed and refined secret by secret, and searches that
	// took the re-simulating scan.
	SearchCandidates  = NewCounter("search.candidates_total")
	SearchSteps       = NewCounter("search.steps_total")
	SearchSimulated   = NewCounter("search.simulated_total")
	SearchNodes       = NewCounter("search.nodes_total")
	SearchNodeMisses  = NewCounter("search.node_misses_total")
	SearchLegacyScans = NewCounter("search.legacy_scans_total")

	// Memo pool (internal/search): walker searchers that checked out
	// their config's released memo (hits) or started cold (misses),
	// filed memos dropped or emptied to keep the pool under its byte
	// bound, and the filed tables' capacity in bytes.
	SearchMemoPoolHits      = NewCounter("search.memo_pool_hits_total")
	SearchMemoPoolMisses    = NewCounter("search.memo_pool_misses_total")
	SearchMemoPoolEvictions = NewCounter("search.memo_pool_evictions_total")
	SearchMemoPoolBytes     = NewGauge("search.memo_pool_bytes")

	// Campaign engine (internal/campaign).
	CampaignJobsDone      = NewCounter("campaign.jobs_done_total")
	CampaignJobsFailed    = NewCounter("campaign.jobs_failed_total")
	CampaignAttacks       = NewCounter("campaign.reliable_attacks_total")
	CampaignJobNs         = NewHistogram("campaign.job_ns")
	CampaignProgressDrops = NewCounter("campaign.progress_dropped_total")
	CatalogNovel          = NewCounter("catalog.novel_total")
	CatalogRediscoveries  = NewCounter("catalog.rediscoveries_total")
	CatalogEvictions      = NewCounter("catalog.evictions_total")

	// Campaign service (internal/serve).
	ServeCampaignsActive   = NewGauge("serve.campaigns_active")
	ServeCampaigns         = NewCounter("serve.campaigns_total")
	ServeCampaignsRejected = NewCounter("serve.campaigns_rejected_total")
	ServeSingleflightHits  = NewCounter("serve.singleflight_hits_total")
	ServeResultCacheHits   = NewCounter("serve.result_cache_hits_total")

	// Fault tolerance (internal/campaign supervised workers).
	CampaignJobPanics           = NewCounter("campaign.job_panics_total")
	CampaignJobRetries          = NewCounter("campaign.job_retries_total")
	CampaignJobTimeouts         = NewCounter("campaign.job_timeouts_total")
	CampaignArtifactPutFailures = NewCounter("campaign.artifact_put_failures_total")
	CampaignCheckpointRetries   = NewCounter("campaign.checkpoint_retries_total")

	// Journal health.
	JournalEvents = NewCounter("journal.events_total")
	JournalErrors = NewCounter("journal.errors_total")
)
