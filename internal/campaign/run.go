package campaign

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
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
	// Retryable marks a failure whose error class is transient (panic,
	// per-job timeout, I/O): resume re-dispatches such jobs instead of
	// skipping them forever as "completed".
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

// RetryPolicy bounds re-runs of transiently failed jobs.
type RetryPolicy struct {
	// MaxAttempts caps total runs of one job, first try included;
	// values below 1 mean 1 (no retries).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; retry k waits
	// BaseBackoff<<(k-1), capped at 30s, jittered ±25% deterministically
	// from the job ID so campaign schedules replay identically. 0 means
	// 100ms.
	BaseBackoff time.Duration
}

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

// progressBuffer is how many progress events the dispatcher holds for a
// slow sink before it starts dropping them: enough to ride out a sink
// that lags a few hundred jobs (a terminal or an HTTP stream under
// load) while keeping the queue's memory bounded.
const progressBuffer = 256

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

	res := &Result{
		Spec:    spec.Name,
		Jobs:    make([]JobResult, len(jobs)),
		Catalog: rc.Catalog,
	}
	if res.Catalog == nil {
		res.Catalog = NewCatalog()
	}
	start := time.Now()

	// Restore the checkpoint: completed jobs keep their recorded result
	// and replay their attacks into the catalog instead of re-running.
	done := map[string]JobResult{}
	if rc.Resume && rc.Checkpoint != "" {
		if done, err = LoadCheckpoint(rc.Checkpoint); err != nil {
			return nil, err
		}
	}
	// firstReliable marks scenario names that already produced a
	// reliable attack, so job.first_reliable journals exactly once per
	// scenario; resumed attacks pre-seed it (their first-reliable event
	// is already in the journal from the earlier invocation).
	firstReliable := map[string]bool{}
	var pending []Job
	redispatched := 0
	for _, job := range jobs {
		prev, ok := done[job.ID]
		// A checkpointed failure is not final when its error class is
		// transient (or the operator forces the issue): re-dispatch it
		// instead of carrying the failure forever.
		if ok && prev.Error != "" && (rc.RetryFailed || prev.Retryable) {
			ok = false
			redispatched++
		}
		if !ok {
			// Prefill the labels so jobs never reached (cancellation)
			// still render usefully in summaries; a zero JobID marks
			// the slot as not run.
			res.Jobs[job.Index] = JobResult{
				Index: job.Index,
				Name:  job.Scenario.Name,
				Seed:  job.Scenario.Env.Seed,
			}
			pending = append(pending, job)
			continue
		}
		prev.Index = job.Index // reindex: the spec may have grown
		res.Jobs[job.Index] = prev
		res.Resumed++
		if prev.Error != "" {
			res.Failed++
		}
		if prev.Canonical != "" {
			res.Catalog.Record(prev.Canonical, prev.Sequence, prev.Category, prev.Name, prev.Accuracy)
		}
		if prev.Sequence != "" {
			firstReliable[prev.Name] = true
		}
	}
	var ckpt *checkpointWriter
	if rc.Checkpoint != "" {
		if ckpt, err = newCheckpointWriter(rc.Checkpoint); err != nil {
			return nil, err
		}
		defer ckpt.Close()
	}

	var mu sync.Mutex // guards res counters, Jobs slice, and event order

	// Progress dispatcher: workers hand events to a buffered channel and
	// a single goroutine calls the user's sink, so a slow sink stalls
	// the dispatcher, not the workers.
	var progCh chan Progress
	var progWG sync.WaitGroup
	if rc.Progress != nil {
		progCh = make(chan Progress, progressBuffer)
		progWG.Add(1)
		go func() {
			defer progWG.Done()
			for p := range progCh {
				rc.Progress(p)
			}
		}()
	}
	// event builds a lifecycle event from the live counters; once the
	// workers run, callers hold mu.
	event := func(kind string) Progress {
		p := Progress{
			Event:       kind,
			Campaign:    spec.Name,
			Done:        res.Resumed + res.Completed,
			Total:       len(jobs),
			Resumed:     res.Resumed,
			Completed:   res.Completed,
			Failed:      res.Failed,
			CatalogSize: res.Catalog.Len(),
			Elapsed:     time.Since(start),
			MaxAttempts: rc.Retry.MaxAttempts,
		}
		if res.Completed > 0 && p.Elapsed > 0 {
			p.JobsPerSec = float64(res.Completed) / p.Elapsed.Seconds()
			if rem := len(jobs) - p.Done; rem > 0 {
				p.ETA = time.Duration(float64(rem) / p.JobsPerSec * float64(time.Second))
			}
		}
		return p
	}
	// emit journals the event and queues it for the sink. A full queue
	// drops it rather than block under mu; only "done" waits for room.
	emit := func(p Progress) {
		journal(rc.Journal, p, rc.Workers, redispatched)
		switch {
		case progCh == nil:
		case p.Event == EventDone:
			progCh <- p
		default:
			select {
			case progCh <- p:
			default:
				obs.CampaignProgressDrops.Inc()
			}
		}
	}
	emit(event(EventStart))

	// A dead checkpoint means resume would silently repeat work: treat
	// a write failure like a cancellation — stop dispatching, finish
	// nothing more, and return the error.
	ctx, abort := context.WithCancel(ctx)
	defer abort()
	var ckptErr error

	feed := make(chan Job)
	var wg sync.WaitGroup
	for w := 0; w < rc.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range feed {
				// Drain without running once cancelled: a job aborted
				// by cancellation must not reach the checkpoint, or
				// resume would skip it forever as "completed".
				if ctx.Err() != nil {
					continue
				}
				// One process-wide compute token per running job: the
				// pool size caps queued work, the token pool caps
				// actual CPU concurrency. Nested parallelism (trainer
				// shards, nn kernels) only try-acquires extra tokens,
				// so a saturated pool runs every job's compute inline
				// — no oversubscription however the two sizes relate.
				nn.AcquireComputeToken()
				t0 := time.Now()
				rc.Journal.Emit(obs.Event{Kind: obs.EvJobStart, Job: job.ID, Name: job.Scenario.Name,
					Data: map[string]any{"explorer": job.Scenario.Explorer}})
				jr := runSupervised(ctx, rc, job)
				nn.ReleaseComputeToken()
				// Once cancelled, an error result is presumed an abort
				// artifact (runners may wrap the context error): drop
				// it so resume retries the job. Successful results
				// from jobs that finished despite cancellation still
				// count and checkpoint.
				if ctx.Err() != nil && jr.Error != "" {
					continue
				}
				jr.JobID = job.ID
				jr.Index = job.Index
				jr.Name = job.Scenario.Name
				jr.Seed = job.Scenario.Env.Seed
				jr.Explorer = job.Scenario.Explorer
				dur := time.Since(t0)
				jr.DurationMS = dur.Milliseconds()

				// The catalog is sharded and safe on its own; recording
				// outside the scheduler lock keeps worker completions
				// contending only on their key's stripe.
				novel := false
				if jr.Canonical != "" {
					novel = res.Catalog.Record(jr.Canonical, jr.Sequence, jr.Category, jr.Name, jr.Accuracy)
				}

				obs.CampaignJobsDone.Inc()
				obs.CampaignJobNs.Observe(dur.Nanoseconds())
				if jr.Error != "" {
					obs.CampaignJobsFailed.Inc()
				}
				if jr.Sequence != "" {
					obs.CampaignAttacks.Inc()
				}

				mu.Lock()
				res.Jobs[job.Index] = jr
				res.Completed++
				if jr.Error != "" {
					res.Failed++
				}
				if jr.Sequence != "" && !firstReliable[jr.Name] {
					firstReliable[jr.Name] = true
					rc.Journal.Emit(obs.Event{Kind: obs.EvFirstReliable, Job: job.ID, Name: jr.Name,
						DurMS: float64(time.Since(start).Nanoseconds()) / 1e6,
						Data: map[string]any{
							"sequence": jr.Sequence,
							"category": jr.Category,
							"accuracy": jr.Accuracy,
						}})
				}
				p := event(EventJob)
				p.Result, p.Novel = &res.Jobs[job.Index], novel
				emit(p)
				if novel {
					p = event(EventNovelAttack)
					p.Key, p.Sequence, p.Category = jr.Canonical, jr.Sequence, jr.Category
					emit(p)
				}
				if ckpt != nil && ckptErr == nil {
					if err := appendWithRetry(ctx, ckpt, rc.Retry, jr); err != nil {
						ckptErr = fmt.Errorf("campaign: checkpoint write: %w", err)
						abort()
					}
				}
				mu.Unlock()
			}
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
	if err = ctx.Err(); ckptErr != nil {
		err = ckptErr
	}
	final := event(EventDone)
	res.Elapsed = final.Elapsed
	if err != nil {
		final.Error = err.Error()
	}
	emit(final)
	// Drain the dispatcher: every queued event reaches the sink (and
	// the sink has returned) before Run does, so callers may inspect
	// sink state immediately after.
	if progCh != nil {
		close(progCh)
		progWG.Wait()
	}
	return res, err
}

// journal writes the line derived from a start, job or done event,
// with the kinds and data keys `autocat stats` and older run
// directories read; workers and redispatched only the start line holds.
func journal(j *obs.Journal, p Progress, workers, redispatched int) {
	switch {
	case j == nil:
	case p.Event == EventStart:
		data := map[string]any{
			"jobs":    p.Total,
			"pending": p.Total - p.Resumed,
			"resumed": p.Resumed,
			"workers": workers,
		}
		if redispatched > 0 {
			data["redispatched"] = redispatched
		}
		j.Emit(obs.Event{Kind: obs.EvCampaignStart, Name: p.Campaign, Data: data})
	case p.Event == EventJob:
		jr := p.Result
		data := map[string]any{
			"explorer": jr.Explorer,
			"accuracy": jr.Accuracy,
			"epochs":   jr.Epochs,
			"catalog":  p.CatalogSize,
		}
		if jr.Converged {
			data["converged"] = true
		}
		if jr.Sequence != "" {
			data["attack"] = true
			data["category"] = jr.Category
			data["novel"] = p.Novel
		}
		if jr.Error != "" {
			data["error"] = jr.Error
		}
		if jr.Attempts > 1 {
			data["attempts"] = jr.Attempts
		}
		if jr.Retryable {
			data["retryable"] = true
		}
		j.Emit(obs.Event{Kind: obs.EvJobDone, Job: jr.JobID, Name: jr.Name,
			DurMS: float64(jr.DurationMS), Data: data})
	case p.Event == EventDone:
		j.Emit(obs.Event{Kind: obs.EvCampaignDone, Name: p.Campaign,
			DurMS: float64(p.Elapsed.Nanoseconds()) / 1e6,
			Data: map[string]any{
				"completed": p.Completed,
				"failed":    p.Failed,
				"resumed":   p.Resumed,
				"catalog":   p.CatalogSize,
			}})
	}
}

// runSupervised executes one job under the fault-tolerance contract:
// every attempt runs behind a recover boundary with the per-job
// deadline applied, and a failure classified transient retries with
// deterministic exponential backoff as long as the attempt budget and
// the campaign context allow. The worker's compute token stays held
// across attempts and backoff sleeps — a retrying job is still one
// scheduled job, not a chance to oversubscribe.
func runSupervised(ctx context.Context, rc RunConfig, job Job) JobResult {
	budget := rc.Retry.MaxAttempts
	if budget < 1 {
		budget = 1
	}
	var jr JobResult
	for attempt := 1; ; attempt++ {
		jr = runAttempt(ctx, rc, job, attempt)
		if attempt > 1 {
			jr.Attempts = attempt
		}
		if jr.Error == "" || !jr.Retryable || attempt >= budget || ctx.Err() != nil {
			return jr
		}
		obs.CampaignJobRetries.Inc()
		delay := retryBackoff(rc.Retry, job.ID, attempt)
		rc.Journal.Emit(obs.Event{Kind: obs.EvJobRetry, Job: job.ID, Name: job.Scenario.Name,
			Data: map[string]any{
				"attempt":    attempt,
				"max":        budget,
				"error":      jr.Error,
				"backoff_ms": float64(delay.Nanoseconds()) / 1e6,
			}})
		select {
		case <-ctx.Done():
			return jr
		case <-time.After(delay):
		}
	}
}

// runAttempt runs the runner once: recover boundary, optional per-job
// deadline, job-scoped telemetry, and error classification. A panic
// loses only this attempt — it becomes a retryable JobResult carrying
// the message, with the stack preserved in the journal.
func runAttempt(ctx context.Context, rc RunConfig, job Job, attempt int) (jr JobResult) {
	actx := ctx
	if rc.JobTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, rc.JobTimeout)
		defer cancel()
	}
	// Scope the job's context so telemetry emitted inside the explorer
	// (per-epoch stats, spans) lands in the journal with this job's
	// attribution. Explorer configs stay untouched — they feed
	// ParamsHash.
	if rc.Journal != nil {
		actx = obs.WithScope(actx, obs.Scope{
			Journal: rc.Journal, Job: job.ID, Name: job.Scenario.Name,
		})
	}
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		obs.CampaignJobPanics.Inc()
		rc.Journal.Emit(obs.Event{Kind: obs.EvJobPanic, Job: job.ID, Name: job.Scenario.Name,
			Data: map[string]any{
				"attempt": attempt,
				"panic":   fmt.Sprint(p),
				"stack":   string(debug.Stack()),
			}})
		jr = JobResult{
			Expected:  job.Scenario.Expected,
			Explorer:  job.Scenario.Explorer,
			Error:     fmt.Sprintf("panic: %v", p),
			Retryable: true,
		}
	}()
	jr = rc.Runner(actx, job)
	if jr.Error == "" {
		return jr
	}
	// A dead attempt deadline while the campaign context is still live
	// is a per-job timeout: its own error class, transient by
	// definition. A plain campaign cancellation stays non-retryable (the
	// scheduler already drops those results so resume re-runs the job).
	if rc.JobTimeout > 0 && actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
		obs.CampaignJobTimeouts.Inc()
		jr.Error = fmt.Sprintf("job timeout (%s): %s", rc.JobTimeout, jr.Error)
		jr.Retryable = true
		return jr
	}
	jr.Retryable = retryableError(jr.Error)
	return jr
}

// retryableError classifies a job error as transient. The supervisor
// prefixes panics and timeouts itself; the rest is a substring taxonomy
// of I/O failures (runners surface errors as strings, so classification
// is textual by construction). Everything unrecognized — bad configs,
// unknown explorers, validation errors — is fatal: retrying those burns
// the budget to reach the same deterministic failure.
func retryableError(msg string) bool {
	if strings.HasPrefix(msg, "panic: ") || strings.HasPrefix(msg, "job timeout ") {
		return true
	}
	for _, transient := range []string{
		"injected fault",
		"input/output error",
		"i/o timeout",
		"file already closed",
		"broken pipe",
		"no space left on device",
		"resource temporarily unavailable",
		"connection reset",
	} {
		if strings.Contains(msg, transient) {
			return true
		}
	}
	return false
}

// retryBackoff is the delay before the retry that follows attempt:
// BaseBackoff doubled per prior attempt, capped at 30s, with ±25%
// jitter drawn from an fnv64a of the job ID and attempt number —
// deterministic, so a replayed campaign sleeps the same schedule.
func retryBackoff(p RetryPolicy, jobID string, attempt int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := base << (attempt - 1)
	if d > 30*time.Second || d < base {
		d = 30 * time.Second
	}
	h := fnv.New64a()
	h.Write([]byte(jobID))
	h.Write([]byte{byte(attempt)})
	frac := time.Duration(h.Sum64() % 1000)
	return d*3/4 + d*frac/2000
}

// appendWithRetry retries transient checkpoint-append failures under
// the campaign's retry policy. The writer rolls back partial lines, so
// a retried append never turns a failure into mid-file corruption. It
// runs under the scheduler lock: the backoff stalls completions, which
// is the right trade against aborting the whole campaign.
func appendWithRetry(ctx context.Context, w *checkpointWriter, p RetryPolicy, jr JobResult) error {
	budget := p.MaxAttempts
	if budget < 1 {
		budget = 1
	}
	var err error
	for attempt := 1; ; attempt++ {
		if err = w.Append(jr); err == nil {
			return nil
		}
		if attempt >= budget || !retryableError(err.Error()) || ctx.Err() != nil {
			return err
		}
		obs.CampaignCheckpointRetries.Inc()
		select {
		case <-ctx.Done():
			return err
		case <-time.After(retryBackoff(p, jr.JobID, attempt)):
		}
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
// holds a token while its job runs), replacing the old
// NumCPU/poolWorkers split that both oversubscribed small machines and
// made job math machine-dependent.
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
		// `autocat stats`.
		if opts.Artifacts != nil && res.Replay != nil && sc.Detector == DetectorNone {
			if art, err := artifactFromResult(job, res); err == nil {
				art.ParamsHash = backend.ParamsHash()
				if stored, _, err := opts.Artifacts.Put(art); err == nil {
					jr.ArtifactID = stored.ID
				} else {
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
	switch sc.Detector {
	case DetectorNone, DetectorMissBased, DetectorCCHunter:
	default:
		return nil, fmt.Errorf("unknown detector %q", sc.Detector)
	}
	switch kind {
	case ExplorerSearch, ExplorerProbe:
		// The cheap backends have no detector plumbing: running them on a
		// detector scenario would silently measure the attack without the
		// detector attached and report it as a bypass. Refuse instead —
		// in a staged run the error escalates the scenario to the PPO
		// stage, which does train against the detector.
		if sc.Detector != DetectorNone {
			return nil, fmt.Errorf("explorer %q does not support detector scenarios (use ppo)", kind)
		}
	}
	switch kind {
	case ExplorerSearch:
		so := opts.Search
		if so.Seed == 0 {
			so.Seed = sc.Env.Seed
		}
		return core.NewSearchBackend(so), nil
	case ExplorerProbe:
		return core.NewProbeBackend(opts.Probe), nil
	}
	bo := core.PPOBackendOptions{Envs: sc.Envs, PPO: sc.ppoConfig(opts.Scale)}
	switch sc.Detector {
	case DetectorMissBased:
		bo.DetectorFactory = func() detect.Detector { return detect.NewMissBased() }
	case DetectorCCHunter:
		bo.DetectorFactory = func() detect.Detector { return detect.NewCCHunter() }
	}
	return core.NewPPOBackend(bo), nil
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
