package campaign

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"autocat/internal/core"
	"autocat/internal/detect"
	"autocat/internal/env"
	"autocat/internal/faults"
	"autocat/internal/nn"
	"autocat/internal/obs"
	"autocat/internal/rl"
)

// JobResult is the persisted outcome of one job; it carries everything
// needed to rebuild the catalog on resume without re-running the job.
type JobResult struct {
	JobID string `json:"job_id"`
	Index int    `json:"index"`
	Name  string `json:"name"`
	Seed  int64  `json:"seed"`
	// Error is the job failure, empty on success.
	Error string `json:"error,omitempty"`
	// Sequence is the extracted attack in arrow notation; empty when no
	// correct attack could be extracted.
	Sequence string `json:"sequence,omitempty"`
	// Canonical is the catalog key of the attack (see Canonicalize).
	Canonical string `json:"canonical,omitempty"`
	// Category is the Table I classification.
	Category string `json:"category,omitempty"`
	// Explorer is the backend that ran the job ("" is the default PPO
	// explorer, so pre-explorer-axis checkpoints are byte-identical).
	Explorer string `json:"explorer,omitempty"`
	// ArtifactID links to the content-addressed attack artifact, when
	// artifact persistence is enabled and the attack replays cleanly.
	ArtifactID string `json:"artifact_id,omitempty"`
	// Expected is the scenario's predicted category, when declared.
	Expected         string  `json:"expected,omitempty"`
	Converged        bool    `json:"converged"`
	Epochs           int     `json:"epochs"`
	EpochsToConverge int     `json:"epochs_to_converge,omitempty"`
	Accuracy         float64 `json:"accuracy"`
	MeanLength       float64 `json:"mean_length"`
	DurationMS       int64   `json:"duration_ms"`
	// Attempts is how many times the job ran before this result; it is
	// recorded only when retries happened (omitempty keeps every
	// pre-retry checkpoint and golden byte-identical, and a missing
	// field means the single attempt stood).
	Attempts int `json:"attempts,omitempty"`
	// Retryable marks a result worth running again: a failure whose
	// error class is transient (panic, per-job timeout, I/O), or a
	// reliable attack whose artifact Put failed with such an error
	// (Error stays empty, so the job counts as solved and never
	// escalates). Resume re-dispatches such jobs instead of skipping
	// them forever as "completed".
	Retryable bool `json:"retryable,omitempty"`
}

// Progress is the one campaign lifecycle event. Run builds each event
// once: RunConfig.Progress gets it as is, the campaign service streams
// it as one JSON line (zero fields omitted), and "start", "job" and
// "done" each derive a journal line. Kinds, in delivery order: "start"
// (always first), one "job" per finished job (the only kind with a
// Result), a "novel_attack" after the "job" of each new attack (its
// Key, Sequence and Category), and "done" (always last and never
// dropped: sent after the workers exit, with the error Run returns).
type Progress struct {
	// Event is EventStart, EventJob, EventNovelAttack or EventDone.
	Event string `json:"event"`
	// Campaign is the spec name.
	Campaign string `json:"campaign,omitempty"`
	// Done counts finished jobs, including resumed ones.
	Done int `json:"done,omitempty"`
	// Total is the campaign's job count.
	Total int `json:"total,omitempty"`
	// Resumed counts jobs restored from the checkpoint.
	Resumed int `json:"resumed,omitempty"`
	// Completed counts jobs run this invocation; Failed counts jobs whose
	// Error is non-empty, resumed ones included.
	Completed int `json:"completed,omitempty"`
	Failed    int `json:"failed,omitempty"`
	// Result is the job that just finished.
	Result *JobResult `json:"result,omitempty"`
	// Novel reports whether the job's attack was new to the catalog
	// (false for jobs without attacks). With a shared RunConfig.Catalog
	// this is cross-campaign novelty.
	Novel bool `json:"novel,omitempty"`
	// Key, Sequence and Category identify a novel attack.
	Key      string `json:"key,omitempty"`
	Sequence string `json:"sequence,omitempty"`
	Category string `json:"category,omitempty"`
	// CatalogSize is the current number of distinct attacks.
	CatalogSize int `json:"catalog,omitempty"`
	// Elapsed is the wall-clock time since the campaign started.
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
	// JobsPerSec is the completion rate of jobs run this invocation
	// (resumed jobs cost no wall clock, so they are excluded). Zero
	// until the first job finishes.
	JobsPerSec float64 `json:"jobs_per_sec,omitempty"`
	// ETA estimates the remaining wall-clock time at the current rate;
	// zero when no rate is known yet or nothing remains.
	ETA time.Duration `json:"eta_ns,omitempty"`
	// MaxAttempts is the campaign's per-job attempt budget, so sinks can
	// render "[retry 2/3]" without holding the RunConfig.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// Error is the campaign error (cancellation included), empty on
	// success.
	Error string `json:"error,omitempty"`
}

// The Progress event kinds.
const (
	EventStart       = "start"
	EventJob         = "job"
	EventNovelAttack = "novel_attack"
	EventDone        = "done"
)

// Runner executes one job and returns its result with JobID, Index,
// Name, Seed and DurationMS left blank (the scheduler fills them). The
// default runner trains a full core.Explorer; tests and throughput
// benchmarks substitute stubs.
type Runner func(ctx context.Context, job Job) JobResult

// RunConfig controls campaign execution.
type RunConfig struct {
	// Workers is the worker-pool size. Default runtime.NumCPU().
	Workers int
	// Checkpoint is the JSONL results path; results append after every
	// job so a killed campaign loses at most the in-flight jobs. Empty
	// disables persistence.
	Checkpoint string
	// Resume skips jobs whose IDs already have results in the
	// checkpoint, replaying their recorded attacks into the catalog.
	Resume bool
	// Progress, when set, receives the lifecycle events from a
	// dedicated dispatcher goroutine (so a slow sink never stalls
	// workers) in emission order; it needs no synchronization of its
	// own. When the sink falls more than progressBuffer events behind,
	// further events are dropped and counted in the
	// campaign.progress_dropped_total metric; "done" waits for room.
	// Every queued event is delivered before Run returns.
	Progress func(Progress)
	// Journal, when set, receives the run's telemetry events
	// (campaign/job lifecycle, first-reliable-attack marks, per-epoch
	// training stats) — see internal/obs. Nil disables journaling.
	Journal *obs.Journal
	// Runner executes the jobs; nil means NewExplorerRunner with zero
	// RunnerOptions (scale 1, default backend budgets, no artifact
	// store).
	Runner Runner
	// JobTimeout bounds each job attempt with its own context deadline;
	// a timed-out attempt records a distinct, retryable error class.
	// 0 disables per-job deadlines.
	JobTimeout time.Duration
	// Retry re-runs jobs whose failure is classified transient (panic,
	// timeout, I/O) with deterministic exponential backoff. The zero
	// value disables retries.
	Retry RetryPolicy
	// RetryFailed forces every checkpointed failure — retryable or not —
	// back into the pending set on resume, for operators who fixed the
	// underlying cause out of band.
	RetryFailed bool
	// Catalog, when non-nil, records discovered attacks into this
	// catalog instead of a fresh unbounded one — the campaign service
	// passes a shared, bounded store here so many tenants dedup into
	// one bounded-memory catalog. Result.Catalog is then this catalog,
	// and progress CatalogSize/Novel reflect its (global) state.
	Catalog *Catalog
}

// Result is a completed (or interrupted) campaign.
type Result struct {
	// Spec is the campaign name.
	Spec string
	// Jobs holds per-job results in expansion order. Interrupted jobs
	// have a zero JobID.
	Jobs []JobResult
	// Catalog is the deduplicated attack store.
	Catalog *Catalog
	// Completed counts jobs run this invocation; Resumed counts jobs
	// restored from the checkpoint; Failed counts jobs whose Error is
	// non-empty (either source).
	Completed, Resumed, Failed int
	// Elapsed is the wall-clock campaign duration.
	Elapsed time.Duration
}

// Run expands the spec and executes it on a bounded worker pool. On
// context cancellation it stops dispatching, waits for in-flight jobs,
// and returns the partial result together with the context error —
// rerunning with RunConfig.Resume picks up where it left off.
func Run(ctx context.Context, spec Spec, rc RunConfig) (*Result, error) {
	jobs, _, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if rc.Workers <= 0 {
		rc.Workers = runtime.NumCPU()
	}
	if rc.Runner == nil {
		rc.Runner = NewExplorerRunner(RunnerOptions{})
	}
	if rc.Catalog == nil {
		rc.Catalog = NewCatalog()
	}
	r := &run{rc: rc, started: time.Now(), solved: map[string]bool{},
		Result: &Result{Spec: spec.Name, Jobs: make([]JobResult, len(jobs)), Catalog: rc.Catalog}}
	pending, err := r.resume(jobs)
	if err != nil {
		return nil, err
	}
	// A dead checkpoint means resume would silently repeat work: treat
	// a write failure like a cancellation — stop dispatching, finish
	// nothing more, and return the error.
	ctx, r.abort = context.WithCancel(ctx)
	defer r.abort()
	if rc.Checkpoint != "" {
		if r.ckpt, err = checkpointFormat.open(rc.Checkpoint); err != nil {
			return nil, err
		}
		defer r.ckpt.Close()
	}
	r.emitStart()

	feed := make(chan Job)
	var wg sync.WaitGroup
	for w := 0; w < rc.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work(ctx, feed)
		}()
	}
dispatch:
	for _, job := range pending {
		select {
		case feed <- job:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(feed)
	wg.Wait()
	if err = ctx.Err(); r.ckptErr != nil {
		err = r.ckptErr
	}
	r.emitDone(err)
	return r.Result, err
}

// run is one Run invocation's state, shared by the worker pool (below),
// the supervisor (supervise.go), the emitter (emit.go) and the tally
// (persist.go). Once the workers run, its lock guards Result, solved,
// ckptErr, the checkpoint appends and the order of events.
type run struct {
	sync.Mutex
	*Result
	rc      RunConfig
	started time.Time
	// solved holds the scenario names that already produced a reliable
	// attack, so job.first_reliable is journaled once per scenario.
	solved map[string]bool
	// redispatched counts checkpointed results that run again.
	redispatched int
	sink         chan Progress // nil without a Progress sink
	drained      sync.WaitGroup
	ckpt         *recordLog[JobResult] // nil without a checkpoint
	ckptErr      error
	abort        context.CancelFunc
}

// work runs the jobs it takes from feed until feed closes.
func (r *run) work(ctx context.Context, feed <-chan Job) {
	for job := range feed {
		// Drain without running once cancelled: a job aborted by
		// cancellation must not reach the checkpoint, or resume would
		// skip it forever as "completed".
		if ctx.Err() != nil {
			continue
		}
		// One process-wide compute token per running job: the pool size
		// caps queued work, the token pool caps actual CPU concurrency.
		// Nested parallelism (trainer shards, nn kernels) only
		// try-acquires extra tokens, so a saturated pool runs every
		// job's compute inline — no oversubscription however the two
		// sizes relate.
		nn.AcquireComputeToken()
		t0 := time.Now()
		r.jobStarted(job)
		jr := r.supervise(ctx, job)
		nn.ReleaseComputeToken()
		// Once cancelled, an error result is presumed an abort artifact
		// (runners may wrap the context error): drop it so resume
		// retries the job. Successful results from jobs that finished
		// despite cancellation still count and checkpoint.
		if ctx.Err() != nil && jr.Error != "" {
			continue
		}
		jr.Explorer = job.Scenario.Explorer
		dur := time.Since(t0)
		jr.DurationMS = dur.Milliseconds()
		r.Lock()
		novel, first := r.add(job, jr, false)
		r.emitJob(&r.Jobs[job.Index], novel, first, dur)
		if r.ckpt != nil && r.ckptErr == nil {
			if err := r.appendCheckpoint(ctx, r.Jobs[job.Index]); err != nil {
				r.ckptErr = fmt.Errorf("campaign: checkpoint write: %w", err)
				r.abort()
			}
		}
		r.Unlock()
	}
}

// RunnerOptions configures the explorer runner.
type RunnerOptions struct {
	// Scale multiplies PPO epoch budgets; 0 means 1.0.
	Scale float64
	// Artifacts, when set, persists every reliable attack as a
	// content-addressed, replayable artifact.
	Artifacts *ArtifactStore
	// Search/Probe parameterize the cheap backends; zero values select
	// their defaults.
	Search core.SearchBackendOptions
	// Probe parameterizes the scripted-agent prober.
	Probe core.ProbeBackendOptions
}

// NewExplorerRunner returns the production runner: each job selects its
// exploration backend from the scenario's Explorer kind — the PPO
// training explorer by default, the budgeted prefix search or the
// scripted-agent prober for the cheap stages — runs it, and catalogs
// the reliable attacks. Machine scheduling is delegated to the
// compute-token pool shared with the nn kernels (each campaign worker
// holds a token while its job runs).
func NewExplorerRunner(opts RunnerOptions) Runner {
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	return func(ctx context.Context, job Job) JobResult {
		// Fault sites for the supervisor tests: a poisoned job (panic)
		// and a hung job (blocks until the per-job deadline or the
		// campaign cancellation fires). Free when disarmed.
		faults.PanicAt("runner.panic")
		faults.HangAt(ctx, "runner.hang")
		if err := ctx.Err(); err != nil {
			return JobResult{Error: err.Error()}
		}
		sc := job.Scenario
		jr := JobResult{Expected: sc.Expected, Explorer: sc.Explorer}

		backend, err := opts.backend(sc)
		if err != nil {
			jr.Error = err.Error()
			return jr
		}
		res, err := backend.Explore(ctx, sc.Env)
		if err != nil {
			jr.Error = err.Error()
			return jr
		}
		jr.Converged = res.Train.Converged
		jr.Epochs = res.Train.Epochs
		jr.EpochsToConverge = res.Train.EpochsToConverge
		jr.Accuracy = res.Eval.Accuracy
		jr.MeanLength = res.Eval.MeanLength
		// Catalog only attacks the explorer performs reliably: an
		// unconverged agent still "extracts" a sequence now and then by
		// guessing luckily, and those would pollute the catalog.
		reliable := res.AttackOK && (res.Train.Converged || res.Eval.Accuracy >= 0.9)
		if !reliable {
			return jr
		}
		// The cheap backends have no training loop; a reliably decoding
		// table/agent counts as converged for summary purposes.
		if backend.Kind() != core.ExplorerPPO {
			jr.Converged = true
		}
		e, err := env.New(sc.Env)
		if err != nil {
			jr.Error = err.Error()
			return jr
		}
		jr.Sequence = res.Sequence
		jr.Canonical = Canonicalize(e, res.Attack.Actions)
		jr.Category = string(res.Category)

		// Persist the discovery as a replayable artifact. Detector
		// scenarios are skipped: the replay recipe rebuilds the plain
		// env.Config, which carries no detector, so a stored record
		// would claim detector-scenario stats measured detector-free.
		// A replay that cannot reproduce a correct attack (a lucky pass
		// on a nondeterministic target) is also skipped — the job result
		// stands, there is just nothing deterministic to store. Store
		// failures (including I/O) leave ArtifactID empty without
		// erasing the successful result — an errored job would
		// needlessly escalate in staged runs — but they are never
		// silent: each drop bumps campaign.artifact_put_failures_total
		// and journals a warning so degraded persistence shows up in
		// `autocat stats`. A transient failure also marks the result
		// Retryable, so a resume runs the job again and stores it.
		if opts.Artifacts != nil && res.Replay != nil && sc.Detector == DetectorNone {
			if art, err := artifactFromResult(job, res); err == nil {
				art.ParamsHash = backend.ParamsHash()
				if stored, _, err := opts.Artifacts.Put(art); err == nil {
					jr.ArtifactID = stored.ID
				} else {
					jr.Retryable = retryableError(err.Error())
					obs.CampaignArtifactPutFailures.Inc()
					obs.ScopeFrom(ctx).Emit(obs.Event{Kind: obs.EvArtifactDrop,
						Data: map[string]any{"error": err.Error()}})
				}
			}
		}
		return jr
	}
}

// backend instantiates the scenario's exploration backend.
func (opts RunnerOptions) backend(sc Scenario) (core.Explorer, error) {
	kind, ok := normalizeExplorer(sc.Explorer)
	if !ok {
		return nil, fmt.Errorf("unknown explorer %q", sc.Explorer)
	}
	bo := core.Config{Envs: sc.Envs}
	switch sc.Detector {
	case DetectorNone:
	case DetectorMissBased:
		bo.DetectorFactory = func() detect.Detector { return detect.NewMissBased() }
	case DetectorCCHunter:
		bo.DetectorFactory = func() detect.Detector { return detect.NewCCHunter() }
	default:
		return nil, fmt.Errorf("unknown detector %q", sc.Detector)
	}
	switch {
	case kind == ExplorerDefault:
		bo.PPO = sc.ppoConfig(opts.Scale)
		return core.NewPPOBackend(bo), nil
	case bo.DetectorFactory != nil:
		// The cheap backends have no detector plumbing: running them on a
		// detector scenario would silently measure the attack without the
		// detector attached and report it as a bypass. Refuse instead —
		// in a staged run the error escalates the scenario to the PPO
		// stage, which does train against the detector.
		return nil, fmt.Errorf("explorer %q does not support detector scenarios (use ppo)", kind)
	case kind == ExplorerProbe:
		return core.NewProbeBackend(opts.Probe), nil
	}
	so := opts.Search
	if so.Seed == 0 {
		so.Seed = sc.Env.Seed
	}
	return core.NewSearchBackend(so), nil
}

// ppoConfig derives the trainer hyperparameters: the scenario's explicit
// PPO override when present, otherwise the tuned exploration schedule
// used across the paper's experiments, at the scaled epoch budget.
func (sc Scenario) ppoConfig(scale float64) rl.PPOConfig {
	if sc.PPO != nil {
		ppo := *sc.PPO
		if ppo.Seed == 0 {
			ppo.Seed = sc.Env.Seed
		}
		return ppo
	}
	epochs := sc.Epochs
	if epochs == 0 {
		epochs = 60
	}
	epochs = int(float64(epochs) * scale)
	if epochs < 10 {
		epochs = 10
	}
	steps := sc.StepsPerEpoch
	if steps == 0 {
		steps = 3000
	}
	return rl.PPOConfig{
		StepsPerEpoch:   steps,
		MaxEpochs:       epochs,
		EntAnnealEpochs: epochs / 2,
		ExploreEps:      0.35,
		Seed:            sc.Env.Seed,
	}
}

// WriterProgress returns a Progress callback that prints one line per
// completed job plus a resume summary, suitable for CLI output.
func WriterProgress(w io.Writer) func(Progress) {
	return func(p Progress) {
		if p.Result == nil {
			if p.Event == EventStart && p.Resumed > 0 {
				fmt.Fprintf(w, "resumed %d/%d jobs from checkpoint (%d attacks)\n",
					p.Resumed, p.Total, p.CatalogSize)
			}
			return
		}
		r := p.Result
		status := r.Category
		if status == "" {
			status = "no attack"
		}
		if r.Error != "" {
			status = "error: " + r.Error
		}
		if r.Attempts > 1 {
			status += fmt.Sprintf(" [retry %d/%d]", r.Attempts, max(p.MaxAttempts, r.Attempts))
		}
		pace := ""
		if p.JobsPerSec > 0 {
			pace = fmt.Sprintf(", %.2f jobs/s", p.JobsPerSec)
			if p.ETA > 0 {
				pace += ", eta " + p.ETA.Round(time.Second).String()
			}
		}
		fmt.Fprintf(w, "[%d/%d] %-40s %-26s acc=%.3f %5.1fs  (catalog %d%s)\n",
			p.Done, p.Total, r.Name, status, r.Accuracy,
			float64(r.DurationMS)/1000, p.CatalogSize, pace)
	}
}
