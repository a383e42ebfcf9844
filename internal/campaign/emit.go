package campaign

// The emitter: every event a campaign run produces leaves through the
// methods below. Each lifecycle event (start, job, novel_attack, done)
// is built once from the run's counters, derives its journal line, and
// is queued for the Progress sink; job.start, job.first_reliable,
// job.retry, job.panic and checkpoint.retry are journal-only. Once the
// workers run, callers of emitJob hold the run's lock, which fixes the
// event order.

import (
	"fmt"
	"runtime/debug"
	"time"

	"autocat/internal/obs"
)

// progressBuffer is how many progress events the emitter holds for a
// slow sink before it starts dropping them: enough to ride out a sink
// that lags a few hundred jobs (a terminal or an HTTP stream under
// load) while keeping the queue's memory bounded.
const progressBuffer = 256

// event builds a lifecycle event from the live counters.
func (r *run) event(kind string) Progress {
	p := Progress{
		Event:       kind,
		Campaign:    r.Spec,
		Done:        r.Resumed + r.Completed,
		Total:       len(r.Jobs),
		Resumed:     r.Resumed,
		Completed:   r.Completed,
		Failed:      r.Failed,
		CatalogSize: r.Catalog.Len(),
		Elapsed:     time.Since(r.started),
		MaxAttempts: r.rc.Retry.MaxAttempts,
	}
	if r.Completed > 0 && p.Elapsed > 0 {
		p.JobsPerSec = float64(r.Completed) / p.Elapsed.Seconds()
		if rem := p.Total - p.Done; rem > 0 {
			p.ETA = time.Duration(float64(rem) / p.JobsPerSec * float64(time.Second))
		}
	}
	return p
}

// send queues p for the sink. A full queue drops it rather than block
// the worker that holds the run's lock.
func (r *run) send(p Progress) {
	if r.sink == nil {
		return
	}
	select {
	case r.sink <- p:
	default:
		obs.CampaignProgressDrops.Inc()
	}
}

// emitStart starts the goroutine that calls the Progress sink, so a
// slow sink stalls only that goroutine, never the workers, then emits
// the "start" event and its campaign.start line.
func (r *run) emitStart() {
	if r.rc.Progress != nil {
		r.sink = make(chan Progress, progressBuffer)
		r.drained.Add(1)
		go func() {
			defer r.drained.Done()
			for p := range r.sink {
				r.rc.Progress(p)
			}
		}()
	}
	p := r.event(EventStart)
	data := map[string]any{"jobs": p.Total, "pending": p.Total - p.Resumed, "resumed": p.Resumed, "workers": r.rc.Workers}
	if r.redispatched > 0 {
		data["redispatched"] = r.redispatched
	}
	r.rc.Journal.Emit(obs.Event{Kind: obs.EvCampaignStart, Name: p.Campaign, Data: data})
	r.send(p)
}

// emitJob announces jr, a job that ran for dur: it counts it in the
// live metrics, journals job.first_reliable when first marks its
// scenario's first reliable attack, emits the "job" event and its
// job.done line, then the "novel_attack" event when jr's attack was new
// to the catalog.
func (r *run) emitJob(jr *JobResult, novel, first bool, dur time.Duration) {
	obs.CampaignJobsDone.Inc()
	obs.CampaignJobNs.Observe(dur.Nanoseconds())
	if first {
		r.rc.Journal.Emit(obs.Event{Kind: obs.EvFirstReliable, Job: jr.JobID, Name: jr.Name,
			DurMS: float64(time.Since(r.started).Nanoseconds()) / 1e6,
			Data:  map[string]any{"sequence": jr.Sequence, "category": jr.Category, "accuracy": jr.Accuracy}})
	}
	p := r.event(EventJob)
	p.Result, p.Novel = jr, novel
	data := map[string]any{"explorer": jr.Explorer, "accuracy": jr.Accuracy, "epochs": jr.Epochs, "catalog": p.CatalogSize}
	if jr.Converged {
		data["converged"] = true
	}
	if jr.Sequence != "" {
		obs.CampaignAttacks.Inc()
		data["attack"] = true
		data["category"] = jr.Category
		data["novel"] = novel
	}
	if jr.Error != "" {
		obs.CampaignJobsFailed.Inc()
		data["error"] = jr.Error
	}
	if jr.Attempts > 1 {
		data["attempts"] = jr.Attempts
	}
	if jr.Retryable {
		data["retryable"] = true
	}
	r.rc.Journal.Emit(obs.Event{Kind: obs.EvJobDone, Job: jr.JobID, Name: jr.Name,
		DurMS: float64(jr.DurationMS), Data: data})
	r.send(p)
	if novel {
		p = r.event(EventNovelAttack)
		p.Key, p.Sequence, p.Category = jr.Canonical, jr.Sequence, jr.Category
		r.send(p)
	}
}

// emitDone records the campaign's elapsed time and emits the "done"
// event, which carries err and is never dropped, and its campaign.done
// line. It returns once the sink has taken every queued event, so
// callers may inspect sink state right after.
func (r *run) emitDone(err error) {
	p := r.event(EventDone)
	r.Elapsed = p.Elapsed
	if err != nil {
		p.Error = err.Error()
	}
	r.rc.Journal.Emit(obs.Event{Kind: obs.EvCampaignDone, Name: p.Campaign,
		DurMS: float64(p.Elapsed.Nanoseconds()) / 1e6,
		Data:  map[string]any{"completed": p.Completed, "failed": p.Failed, "resumed": p.Resumed, "catalog": p.CatalogSize}})
	if r.sink != nil {
		r.sink <- p
		close(r.sink)
		r.drained.Wait()
	}
}

// jobStarted journals that a worker picked job up.
func (r *run) jobStarted(job Job) {
	r.rc.Journal.Emit(obs.Event{Kind: obs.EvJobStart, Job: job.ID, Name: job.Scenario.Name,
		Data: map[string]any{"explorer": job.Scenario.Explorer}})
}

// retried counts and journals a transient failure about to be retried
// after delay: a job attempt's (kind job.retry, which also names the
// attempt budget) or a checkpoint append's (checkpoint.retry).
func (r *run) retried(kind, jobID, name string, attempt int, err error, delay time.Duration) {
	data := map[string]any{"attempt": attempt, "error": err.Error(), "backoff_ms": float64(delay.Nanoseconds()) / 1e6}
	if kind == obs.EvJobRetry {
		obs.CampaignJobRetries.Inc()
		data["max"] = max(r.rc.Retry.MaxAttempts, 1)
	} else {
		obs.CampaignCheckpointRetries.Inc()
	}
	r.rc.Journal.Emit(obs.Event{Kind: kind, Job: jobID, Name: name, Data: data})
}

// jobPanicked counts and journals a panicked attempt with its stack; it
// is called from the deferred recover, while the stack still holds the
// panic.
func (r *run) jobPanicked(job Job, attempt int, p any) {
	obs.CampaignJobPanics.Inc()
	r.rc.Journal.Emit(obs.Event{Kind: obs.EvJobPanic, Job: job.ID, Name: job.Scenario.Name,
		Data: map[string]any{"attempt": attempt, "panic": fmt.Sprint(p), "stack": string(debug.Stack())}})
}
