package campaign

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"autocat/internal/obs"
)

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

// retry is the one retry loop, shared by job attempts and checkpoint
// appends. It calls try for attempts 1, 2, ... and returns the first
// nil error, or the error of the attempt it gives up on: one not
// classified transient, the last of the attempt budget, or one after
// ctx ended. Before each retry it emits a kind line (job.retry or
// checkpoint.retry) for the job, then sleeps the backoff; ctx ending
// cuts the sleep short.
func (r *run) retry(ctx context.Context, kind, jobID, name string, try func(attempt int) error) error {
	for attempt := 1; ; attempt++ {
		err := try(attempt)
		if err == nil || !retryableError(err.Error()) || attempt >= max(r.rc.Retry.MaxAttempts, 1) || ctx.Err() != nil {
			return err
		}
		delay := retryBackoff(r.rc.Retry, jobID, attempt)
		r.retried(kind, jobID, name, attempt, err, delay)
		select {
		case <-ctx.Done():
			return err
		case <-time.After(delay):
		}
	}
}

// supervise executes one job under the fault-tolerance contract: every
// attempt runs behind a recover boundary with the per-job deadline
// applied, and a failure classified transient retries while the attempt
// budget and the campaign context allow. The worker's compute token
// stays held across attempts and backoff sleeps — a retrying job is
// still one scheduled job, not a chance to oversubscribe.
func (r *run) supervise(ctx context.Context, job Job) JobResult {
	var jr JobResult
	r.retry(ctx, obs.EvJobRetry, job.ID, job.Scenario.Name, func(attempt int) error {
		jr = r.attempt(ctx, job, attempt)
		if attempt > 1 {
			jr.Attempts = attempt
		}
		if jr.Error == "" {
			return nil
		}
		jr.Retryable = retryableError(jr.Error)
		return errors.New(jr.Error)
	})
	return jr
}

// attempt runs the runner once: recover boundary, optional per-job
// deadline and job-scoped telemetry. A panic loses only this attempt —
// it becomes a JobResult carrying the message, with the stack preserved
// in the journal.
func (r *run) attempt(ctx context.Context, job Job, attempt int) (jr JobResult) {
	actx := ctx
	if r.rc.JobTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, r.rc.JobTimeout)
		defer cancel()
	}
	// Scope the job's context so telemetry emitted inside the explorer
	// (per-epoch stats, spans) lands in the journal with this job's
	// attribution. Explorer configs stay untouched — they feed
	// ParamsHash.
	if r.rc.Journal != nil {
		actx = obs.WithScope(actx, obs.Scope{Journal: r.rc.Journal, Job: job.ID, Name: job.Scenario.Name})
	}
	defer func() {
		if p := recover(); p != nil {
			r.jobPanicked(job, attempt, p)
			jr = JobResult{Expected: job.Scenario.Expected, Error: fmt.Sprintf("panic: %v", p)}
		}
	}()
	jr = r.rc.Runner(actx, job)
	// A dead attempt deadline while the campaign context is still live
	// is a per-job timeout: its own error class, transient by
	// definition. A plain campaign cancellation stays non-retryable (the
	// scheduler already drops those results so resume re-runs the job).
	if jr.Error != "" && r.rc.JobTimeout > 0 && actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
		obs.CampaignJobTimeouts.Inc()
		jr.Error = fmt.Sprintf("job timeout (%s): %s", r.rc.JobTimeout, jr.Error)
	}
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
