package campaign

// Tests for the fault-tolerance layer: supervised workers (recover
// boundary), per-job deadlines, retry with deterministic backoff,
// resume re-dispatch of retryable failures, record-log write rollback
// and checkpoint-append retry, and the crash-equivalence contract (a campaign hard-aborted at job
// boundaries and resumed is indistinguishable from an uninterrupted
// one). Injected failures come from internal/faults.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"autocat/internal/faults"
	"autocat/internal/obs"
)

// quickRetry is the test-speed retry policy.
func quickRetry(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseBackoff: time.Millisecond}
}

// attemptCounter hands out per-job attempt numbers for flaky stub
// runners.
type attemptCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *attemptCounter) next(jobID string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == nil {
		c.n = map[string]int{}
	}
	c.n[jobID]++
	return c.n[jobID]
}

func TestWorkerPanicRecoveredAndRetried(t *testing.T) {
	dir := t.TempDir()
	j, err := obs.OpenJournal(filepath.Join(dir, "telemetry.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	panics0 := obs.CampaignJobPanics.Load()
	retries0 := obs.CampaignJobRetries.Load()

	var counts attemptCounter
	spec := gridSpec(1, 2) // 8 jobs
	res, err := Run(context.Background(), spec, RunConfig{
		Workers: 2,
		Retry:   quickRetry(3),
		Journal: j,
		Runner: func(ctx context.Context, job Job) JobResult {
			// Seed-2 jobs are poisoned on their first attempt only.
			if job.Scenario.Env.Seed == 2 && counts.next(job.ID) == 1 {
				panic("poisoned grid point")
			}
			return JobResult{Converged: true, Accuracy: 1}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if res.Failed != 0 || res.Completed != 8 {
		t.Fatalf("completed=%d failed=%d, want 8/0", res.Completed, res.Failed)
	}
	for _, jr := range res.Jobs {
		switch jr.Seed {
		case 2:
			if jr.Attempts != 2 || jr.Error != "" {
				t.Errorf("poisoned job %s: attempts=%d error=%q, want 2 attempts, no error", jr.Name, jr.Attempts, jr.Error)
			}
		default:
			if jr.Attempts != 0 {
				t.Errorf("clean job %s records attempts=%d, want 0 (byte-compat)", jr.Name, jr.Attempts)
			}
		}
	}
	if d := obs.CampaignJobPanics.Load() - panics0; d != 4 {
		t.Errorf("job_panics_total advanced by %d, want 4", d)
	}
	if d := obs.CampaignJobRetries.Load() - retries0; d != 4 {
		t.Errorf("job_retries_total advanced by %d, want 4", d)
	}

	events, _, err := obs.ReadJournal(filepath.Join(dir, "telemetry.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var panicEvs, retryEvs int
	for _, ev := range events {
		switch ev.Kind {
		case obs.EvJobPanic:
			panicEvs++
			data, _ := ev.Data.(map[string]any)
			if s, _ := data["stack"].(string); !strings.Contains(s, "goroutine") {
				t.Errorf("panic event carries no stack: %v", ev.Data)
			}
		case obs.EvJobRetry:
			retryEvs++
		}
	}
	if panicEvs != 4 || retryEvs != 4 {
		t.Errorf("journal has %d panic / %d retry events, want 4/4", panicEvs, retryEvs)
	}
	rep := obs.BuildRunReport(events, nil)
	if rep.Panics != 4 || rep.Retries != 4 || rep.Attempts != 12 {
		t.Errorf("report panics=%d retries=%d attempts=%d, want 4/4/12", rep.Panics, rep.Retries, rep.Attempts)
	}
}

func TestWorkerPanicWithoutRetryFailsOnlyThatJob(t *testing.T) {
	spec := gridSpec(1, 2)
	res, err := Run(context.Background(), spec, RunConfig{
		Workers: 2,
		Runner: func(ctx context.Context, job Job) JobResult {
			if job.Scenario.Env.Seed == 2 {
				panic("always poisoned")
			}
			return JobResult{Converged: true, Accuracy: 1}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 8 || res.Failed != 4 {
		t.Fatalf("completed=%d failed=%d, want 8 completed / 4 failed", res.Completed, res.Failed)
	}
	for _, jr := range res.Jobs {
		if jr.Seed != 2 {
			if jr.Error != "" {
				t.Errorf("clean job %s failed: %s", jr.Name, jr.Error)
			}
			continue
		}
		if !strings.HasPrefix(jr.Error, "panic: always poisoned") {
			t.Errorf("poisoned job error = %q, want panic prefix", jr.Error)
		}
		if !jr.Retryable {
			t.Errorf("panic result not marked retryable")
		}
	}
}

func TestJobTimeoutRetriesThenSucceeds(t *testing.T) {
	timeouts0 := obs.CampaignJobTimeouts.Load()
	var counts attemptCounter
	spec := Spec{Name: "hang", Scenarios: []Scenario{oneBitScenario(1)}}
	res, err := Run(context.Background(), spec, RunConfig{
		Workers:    1,
		JobTimeout: 30 * time.Millisecond,
		Retry:      quickRetry(3),
		Runner: func(ctx context.Context, job Job) JobResult {
			if counts.next(job.ID) == 1 {
				<-ctx.Done() // hang until the per-job deadline fires
				return JobResult{Error: ctx.Err().Error()}
			}
			return JobResult{Converged: true, Accuracy: 1}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	jr := res.Jobs[0]
	if jr.Error != "" || jr.Attempts != 2 {
		t.Fatalf("job error=%q attempts=%d, want success on attempt 2", jr.Error, jr.Attempts)
	}
	if d := obs.CampaignJobTimeouts.Load() - timeouts0; d != 1 {
		t.Errorf("job_timeouts_total advanced by %d, want 1", d)
	}
}

func TestJobTimeoutWithoutRetryRecordsRetryableError(t *testing.T) {
	spec := Spec{Name: "hang", Scenarios: []Scenario{oneBitScenario(1)}}
	res, err := Run(context.Background(), spec, RunConfig{
		Workers:    1,
		JobTimeout: 20 * time.Millisecond,
		Runner: func(ctx context.Context, job Job) JobResult {
			<-ctx.Done()
			return JobResult{Error: ctx.Err().Error()}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	jr := res.Jobs[0]
	if !strings.HasPrefix(jr.Error, "job timeout (") || !jr.Retryable {
		t.Fatalf("timeout result = error %q retryable %v, want 'job timeout (...' and retryable", jr.Error, jr.Retryable)
	}
}

// TestCampaignCancelNotRetried: a campaign-level cancellation must not
// be classified transient — the scheduler drops such results so resume
// re-runs the job, and retrying a dead context would just burn the
// backoff budget.
func TestCampaignCancelNotRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var counts attemptCounter
	spec := Spec{Name: "cancel", Scenarios: []Scenario{oneBitScenario(1)}}
	_, err := Run(ctx, spec, RunConfig{
		Workers: 1,
		Retry:   quickRetry(5),
		Runner: func(jctx context.Context, job Job) JobResult {
			counts.next(job.ID)
			cancel()
			<-jctx.Done()
			return JobResult{Error: jctx.Err().Error()}
		},
	})
	if err == nil {
		t.Fatal("cancelled campaign returned nil error")
	}
	if n := counts.next("x"); false {
		_ = n
	}
	counts.mu.Lock()
	defer counts.mu.Unlock()
	for id, n := range counts.n {
		if id != "x" && n != 1 {
			t.Errorf("job %s ran %d attempts after campaign cancel, want 1", id, n)
		}
	}
}

func TestResumeRedispatchesRetryableFailures(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.jsonl")
	spec := gridSpec(1) // 4 jobs

	// First pass: every job fails with a transient error class.
	res, err := Run(context.Background(), spec, RunConfig{
		Workers:    1,
		Checkpoint: ckpt,
		Runner: func(ctx context.Context, job Job) JobResult {
			return JobResult{Error: "write results: input/output error"}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 4 {
		t.Fatalf("first pass failed=%d, want 4", res.Failed)
	}

	// Resume: the retryable failures go back to pending and succeed.
	var calls int
	res, err = Run(context.Background(), spec, RunConfig{
		Workers: 1, Checkpoint: ckpt, Resume: true,
		Runner: func(ctx context.Context, job Job) JobResult {
			calls++
			return JobResult{Converged: true, Accuracy: 1}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 || res.Completed != 4 || res.Resumed != 0 || res.Failed != 0 {
		t.Fatalf("resume ran %d jobs (completed=%d resumed=%d failed=%d), want all 4 re-dispatched",
			calls, res.Completed, res.Resumed, res.Failed)
	}

	// A third resume skips everything: the failures were overwritten.
	res, err = Run(context.Background(), spec, RunConfig{
		Workers: 1, Checkpoint: ckpt, Resume: true,
		Runner: func(ctx context.Context, job Job) JobResult {
			t.Error("job re-ran after success")
			return JobResult{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 4 || res.Completed != 0 {
		t.Fatalf("third pass resumed=%d completed=%d, want 4/0", res.Resumed, res.Completed)
	}
}

func TestResumeSkipsFatalFailuresUnlessForced(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.jsonl")
	spec := gridSpec(1)

	if _, err := Run(context.Background(), spec, RunConfig{
		Workers:    1,
		Checkpoint: ckpt,
		Runner: func(ctx context.Context, job Job) JobResult {
			return JobResult{Error: "unknown explorer \"bogus\""}
		},
	}); err != nil {
		t.Fatal(err)
	}

	// Plain resume: a fatal error class stays checkpointed.
	res, err := Run(context.Background(), spec, RunConfig{
		Workers: 1, Checkpoint: ckpt, Resume: true,
		Runner: func(ctx context.Context, job Job) JobResult {
			t.Error("fatal failure re-dispatched without -retry-failed")
			return JobResult{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 4 || res.Failed != 4 {
		t.Fatalf("resumed=%d failed=%d, want 4/4", res.Resumed, res.Failed)
	}

	// RetryFailed forces them back into the pending set.
	var calls int
	res, err = Run(context.Background(), spec, RunConfig{
		Workers: 1, Checkpoint: ckpt, Resume: true, RetryFailed: true,
		Runner: func(ctx context.Context, job Job) JobResult {
			calls++
			return JobResult{Converged: true, Accuracy: 1}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 || res.Failed != 0 {
		t.Fatalf("RetryFailed ran %d jobs (failed=%d), want 4/0", calls, res.Failed)
	}
}

func TestCheckpointAppendRetriesInjectedFault(t *testing.T) {
	defer faults.Disarm()
	retries0 := obs.CampaignCheckpointRetries.Load()
	if err := faults.ArmString("checkpoint.write:nth=2"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.jsonl")
	spec := gridSpec(1)
	var mu sync.Mutex
	var calls int32
	res, err := Run(context.Background(), spec, RunConfig{
		Workers:    1,
		Checkpoint: ckpt,
		Retry:      quickRetry(3),
		Runner:     stubRunner(&calls, &mu),
	})
	if err != nil {
		t.Fatalf("campaign failed despite retryable checkpoint fault: %v", err)
	}
	if res.Completed != 4 || res.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 4/0", res.Completed, res.Failed)
	}
	if d := obs.CampaignCheckpointRetries.Load() - retries0; d != 1 {
		t.Errorf("checkpoint_retries_total advanced by %d, want 1", d)
	}
	faults.Disarm()
	loaded, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 4 {
		t.Fatalf("checkpoint holds %d records, want 4", len(loaded))
	}
}

// TestCheckpointRetryJournaled: a retried checkpoint append journals a
// checkpoint.retry event naming the job, the attempt and the error, and
// the run report counts and prints it.
func TestCheckpointRetryJournaled(t *testing.T) {
	defer faults.Disarm()
	if err := faults.ArmString("checkpoint.write:nth=2"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	j, err := obs.OpenJournal(filepath.Join(dir, "telemetry.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "campaign.jsonl")
	var mu sync.Mutex
	var calls int32
	if _, err := Run(context.Background(), gridSpec(1), RunConfig{
		Workers:    1,
		Checkpoint: ckpt,
		Retry:      quickRetry(3),
		Journal:    j,
		Runner:     stubRunner(&calls, &mu),
	}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	faults.Disarm()
	loaded, err := LoadCheckpoint(ckpt)
	if err != nil || len(loaded) != 4 {
		t.Fatalf("checkpoint holds %d records (%v), want 4", len(loaded), err)
	}
	events, _, err := obs.ReadJournal(filepath.Join(dir, "telemetry.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var retries []obs.Event
	for _, ev := range events {
		if ev.Kind == obs.EvCheckpointRetry {
			retries = append(retries, ev)
		}
	}
	if len(retries) != 1 {
		t.Fatalf("journal holds %d checkpoint.retry events, want 1", len(retries))
	}
	data, _ := retries[0].Data.(map[string]any)
	if _, ok := loaded[retries[0].Job]; !ok || data["attempt"] != 1.0 || !strings.Contains(fmt.Sprint(data["error"]), faults.ErrInjected.Error()) {
		t.Fatalf("checkpoint.retry event %+v, want a checkpointed job, attempt 1 and the injected error", retries[0])
	}
	rep := obs.BuildRunReport(events, nil)
	var out strings.Builder
	rep.Format(&out)
	if rep.CheckpointRetries != 1 || !strings.Contains(out.String(), "checkpoint retries: 1") {
		t.Fatalf("report counts %d checkpoint retries and prints:\n%s", rep.CheckpointRetries, out.String())
	}
}

func TestCheckpointFaultWithoutRetryAbortsCampaign(t *testing.T) {
	defer faults.Disarm()
	if err := faults.ArmString("checkpoint.write:nth=2"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spec := gridSpec(1)
	var mu sync.Mutex
	var calls int32
	_, err := Run(context.Background(), spec, RunConfig{
		Workers:    1,
		Checkpoint: filepath.Join(dir, "campaign.jsonl"),
		Runner:     stubRunner(&calls, &mu),
	})
	if err == nil || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("unretried checkpoint fault returned %v, want wrapped ErrInjected", err)
	}
}

// TestCheckpointWriteFaultRollsBack: checkpoint.write fires after the
// record's bytes reach the file, so every injected failure exercises the
// rollback; with retries the file must come out byte-identical to a
// fault-free run's.
func TestCheckpointWriteFaultRollsBack(t *testing.T) {
	defer faults.Disarm()
	records := []JobResult{
		{JobID: "a", Name: "j0", Converged: true, Accuracy: 1, Sequence: "v0 -> g0"},
		{JobID: "b", Name: "j1", Error: "job timeout (1s): x", Retryable: true, Attempts: 2},
		{JobID: "c", Name: "j2", Converged: true, Accuracy: 0.5},
	}
	write := func(plan string) []byte {
		faults.Disarm()
		if plan != "" {
			if err := faults.ArmString(plan); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(t.TempDir(), "campaign.jsonl")
		w, err := checkpointFormat.open(path)
		if err != nil {
			t.Fatal(err)
		}
		r := &run{rc: RunConfig{Retry: quickRetry(3)}, ckpt: w}
		for _, jr := range records {
			if err := r.appendCheckpoint(context.Background(), jr); err != nil {
				t.Fatalf("plan %q: append %s: %v", plan, jr.JobID, err)
			}
		}
		w.Close()
		if plan != "" && faults.Fires("checkpoint.write") != 1 {
			t.Fatalf("plan %q fired %d times, want 1", plan, faults.Fires("checkpoint.write"))
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	want := write("")
	if got := write("checkpoint.write:nth=2"); !bytes.Equal(got, want) {
		t.Errorf("checkpoint after a rolled-back write differs:\n got %s\nwant %s", got, want)
	}
}

// TestArtifactWriteFaultRollsBack: a Put whose index write fails after
// its bytes reached the file must leave no fragment behind, so the next
// Put succeeds and the store reopens holding exactly that artifact.
func TestArtifactWriteFaultRollsBack(t *testing.T) {
	defer faults.Disarm()
	if err := faults.ArmString("artifact.write:nth=1"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := Artifact{Explorer: "search", Name: "first", Sequence: "v0 -> g0", Actions: []int{0}, Accuracy: 1}
	second := Artifact{Explorer: "search", Name: "second", Sequence: "v1 -> g1", Actions: []int{1}, Accuracy: 1}
	if _, _, err := store.Put(first); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("first Put returned %v, want the injected write fault", err)
	}
	stored, novel, err := store.Put(second)
	if err != nil || !novel {
		t.Fatalf("second Put: novel=%v err=%v", novel, err)
	}
	store.Close()
	faults.Disarm()

	store, err = OpenArtifactStore(dir)
	if err != nil {
		t.Fatalf("store unopenable after a rolled-back write: %v", err)
	}
	defer store.Close()
	arts, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 1 || !reflect.DeepEqual(arts[0], stored) {
		var names []string
		for _, a := range arts {
			names = append(names, a.Name)
		}
		t.Fatalf("List after rollback holds %v, want exactly [second]", names)
	}
}

func TestArtifactPutFailureVisibleNotFatal(t *testing.T) {
	defer faults.Disarm()
	drops0 := obs.CampaignArtifactPutFailures.Load()
	if err := faults.ArmString("artifact.put:nth=1"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	j, err := obs.OpenJournal(filepath.Join(dir, "telemetry.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sc := oneBitScenario(1)
	sc.Explorer = "search"
	spec := Spec{Name: "drop", Scenarios: []Scenario{sc}}
	res, err := Run(context.Background(), spec, RunConfig{
		Workers: 1,
		Runner:  artifactRunner(t, dir),
		Journal: j,
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	jr := res.Jobs[0]
	if jr.Error != "" || jr.Sequence == "" {
		t.Fatalf("job result damaged by artifact drop: %+v", jr)
	}
	if jr.ArtifactID != "" {
		t.Fatalf("dropped Put still produced artifact ID %q", jr.ArtifactID)
	}
	if d := obs.CampaignArtifactPutFailures.Load() - drops0; d != 1 {
		t.Errorf("artifact_put_failures_total advanced by %d, want 1", d)
	}
	events, _, err := obs.ReadJournal(filepath.Join(dir, "telemetry.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range events {
		if ev.Kind == obs.EvArtifactDrop {
			found = true
			if ev.Job == "" {
				t.Error("artifact.drop event has no job attribution")
			}
		}
	}
	if !found {
		t.Error("no artifact.drop event journaled")
	}
}

// TestResumeStoresArtifactLostToTransientFault: a reliable attack whose
// artifact index write hits a transient fault stays solved (no error,
// no failure count) but is marked retryable, so a resume with faults
// disarmed runs it again: the store then lists the artifact, and the
// job's last checkpoint record carries its ID. The journal both runs
// share holds one job.first_reliable line per scenario: the resumed
// run's re-dispatched job solved a scenario the first run already
// journaled.
func TestResumeStoresArtifactLostToTransientFault(t *testing.T) {
	defer faults.Disarm()
	if err := faults.ArmString("artifact.write:nth=1"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.jsonl")
	journalPath := filepath.Join(dir, "telemetry.jsonl")
	sc := oneBitScenario(1)
	sc.Explorer = "search"
	spec := Spec{Name: "lost", Scenarios: []Scenario{sc}}
	run := func(resume bool) *Result {
		t.Helper()
		store, err := OpenArtifactStore(filepath.Join(dir, "artifacts"))
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		j, err := obs.OpenJournal(journalPath)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		res, err := Run(context.Background(), spec, RunConfig{
			Workers: 1, Checkpoint: ckpt, Resume: resume, Journal: j,
			Runner: NewExplorerRunner(RunnerOptions{Artifacts: store}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res := run(false)
	jr := res.Jobs[0]
	if jr.Error != "" || jr.Sequence == "" || jr.ArtifactID != "" || !jr.Retryable || res.Failed != 0 {
		t.Fatalf("faulted run: failed=%d, job %+v; want a solved, retryable job without an artifact", res.Failed, jr)
	}

	faults.Disarm()
	res = run(true)
	if res.Completed != 1 || res.Resumed != 0 || res.Failed != 0 {
		t.Fatalf("resume: completed=%d resumed=%d failed=%d, want the job re-dispatched", res.Completed, res.Resumed, res.Failed)
	}
	store, err := OpenArtifactStore(filepath.Join(dir, "artifacts"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	arts, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	done, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	last := done[jr.JobID]
	if len(arts) != 1 || last.ArtifactID == "" || last.ArtifactID != arts[0].ID || last.Retryable {
		t.Fatalf("after resume the store lists %d artifacts and the last record is %+v", len(arts), last)
	}
	events, _, err := obs.ReadJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	firsts := map[string]int{}
	for _, ev := range events {
		if ev.Kind == obs.EvFirstReliable {
			firsts[ev.Name]++
		}
	}
	if len(firsts) != 1 || firsts[jr.Name] != 1 {
		t.Fatalf("journal holds job.first_reliable lines per scenario %v, want one for %s", firsts, jr.Name)
	}
}

// TestRetryBackoffCancelReturnsPromptly: cancelling the campaign while
// the one retry loop sleeps a backoff ends the sleep at once, for both
// of its callers — a failed job attempt and a failed checkpoint append.
// The backoff is seconds long, so a loop that slept it out would blow
// the deadline.
func TestRetryBackoffCancelReturnsPromptly(t *testing.T) {
	for _, tc := range []struct {
		name, plan string
		jobErr     string
	}{
		{name: "job attempt", jobErr: "write results: input/output error"},
		{name: "checkpoint append", plan: "checkpoint.write:nth=1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer faults.Disarm()
			if tc.plan != "" {
				if err := faults.ArmString(tc.plan); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			start := time.Now()
			_, err := Run(ctx, Spec{Name: "cancel", Scenarios: []Scenario{oneBitScenario(1)}}, RunConfig{
				Workers:    1,
				Checkpoint: filepath.Join(t.TempDir(), "campaign.jsonl"),
				Retry:      RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Second},
				Runner: func(ctx context.Context, job Job) JobResult {
					// Cancel once the first failure is in the backoff.
					once.Do(func() { time.AfterFunc(50*time.Millisecond, cancel) })
					return JobResult{Error: tc.jobErr}
				},
			})
			if took := time.Since(start); took > 3*time.Second {
				t.Fatalf("Run returned %v after cancellation began a 10s backoff", took)
			}
			if err == nil {
				t.Fatal("cancelled campaign returned no error")
			}
		})
	}
}

// artifactRunner opens the artifact store under dir for the rest of the
// test and returns the explorer runner that persists into it.
func artifactRunner(t *testing.T, dir string) Runner {
	t.Helper()
	store, err := OpenArtifactStore(filepath.Join(dir, "artifacts"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return NewExplorerRunner(RunnerOptions{Artifacts: store})
}

// crashSpec is the campaign the crash-equivalence test runs: four
// search-solvable one-bit scenarios, solved in milliseconds each, on
// one worker so job order (and therefore every append) is
// deterministic.
func crashSpec() Spec {
	var scs []Scenario
	for seed := int64(1); seed <= 4; seed++ {
		sc := oneBitScenario(seed)
		sc.Name = fmt.Sprintf("onebit-s%d", seed)
		sc.Explorer = "search"
		scs = append(scs, sc)
	}
	return Spec{Name: "crash", Scenarios: scs}
}

// TestCrashCampaignHelper is the subprocess body of
// TestCrashEquivalence: it arms the fault plan from the environment and
// runs (or resumes) the crash campaign in AUTOCAT_CRASH_DIR. With
// checkpoint.crash or artifact.crash armed, faults.CrashAt hard-aborts
// the process right after a durable record — the in-tree kill -9.
func TestCrashCampaignHelper(t *testing.T) {
	dir := os.Getenv("AUTOCAT_CRASH_DIR")
	if dir == "" {
		t.Skip("subprocess helper for TestCrashEquivalence")
	}
	if _, err := faults.ArmFromEnv(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), crashSpec(), RunConfig{
		Workers:    1,
		Checkpoint: filepath.Join(dir, "campaign.jsonl"),
		Resume:     true,
		Runner:     artifactRunner(t, dir),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("crash campaign failed %d jobs", res.Failed)
	}
}

// TestCrashEquivalence is the tentpole acceptance test: a campaign
// hard-aborted (os.Exit right after a durable record) on every run and
// resumed until done must leave a checkpoint, artifact store, and
// catalog identical to an uninterrupted run. It crashes at both record
// logs: after a checkpoint record (a job boundary), and after an
// artifact record whose job has no checkpoint record yet, so the resume
// re-runs that job and Put must deduplicate its artifact.
func TestCrashEquivalence(t *testing.T) {
	if os.Getenv("AUTOCAT_CRASH_DIR") != "" {
		t.Skip("inside crash helper")
	}

	// Reference: the same campaign, uninterrupted, no faults.
	refDir := t.TempDir()
	ref, err := Run(context.Background(), crashSpec(), RunConfig{
		Workers:    1,
		Checkpoint: filepath.Join(refDir, "campaign.jsonl"),
		Runner:     artifactRunner(t, refDir),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Failed != 0 || ref.Completed != 4 {
		t.Fatalf("reference run completed=%d failed=%d", ref.Completed, ref.Failed)
	}
	for _, plan := range []string{"checkpoint.crash:nth=2", "artifact.crash:nth=2"} {
		t.Run(plan, func(t *testing.T) { crashAndCompare(t, plan, refDir, ref) })
	}
}

// crashAndCompare runs the crash campaign under plan until a run
// survives, then compares its files and catalog with the reference run.
func crashAndCompare(t *testing.T, plan, refDir string, ref *Result) {
	// Every invocation aborts at the plan's second record (arming is
	// per-process, so each resume gets further) until a run survives to
	// completion.
	crashDir := t.TempDir()
	crashes := 0
	for run := 1; ; run++ {
		if run > 10 {
			t.Fatal("crash loop did not converge in 10 runs")
		}
		cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashCampaignHelper$")
		cmd.Env = append(os.Environ(),
			"AUTOCAT_CRASH_DIR="+crashDir,
			faults.EnvVar+"="+plan)
		out, err := cmd.CombinedOutput()
		if err == nil {
			break
		}
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != faults.CrashExitCode {
			t.Fatalf("run %d: unexpected helper failure: %v\n%s", run, err, out)
		}
		crashes++
	}
	if crashes == 0 {
		t.Fatal("the injected crash never fired")
	}

	// Checkpoint equivalence: same records, job for job (wall-clock
	// zeroed — it is the one legitimately nondeterministic field).
	norm := func(m map[string]JobResult) map[string]JobResult {
		out := make(map[string]JobResult, len(m))
		for id, jr := range m {
			jr.DurationMS = 0
			out[id] = jr
		}
		return out
	}
	got, err := LoadCheckpoint(filepath.Join(crashDir, "campaign.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := LoadCheckpoint(filepath.Join(refDir, "campaign.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(norm(got), norm(want)) {
		t.Errorf("crashed+resumed checkpoint differs from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}

	// Artifact-store equivalence: byte-identical index (content hashes,
	// order, everything).
	gotArts, err := os.ReadFile(filepath.Join(crashDir, "artifacts", "artifacts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	wantArts, err := os.ReadFile(filepath.Join(refDir, "artifacts", "artifacts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotArts, wantArts) {
		t.Errorf("artifact index differs:\n got: %s\nwant: %s", gotArts, wantArts)
	}

	// Catalog equivalence: resume the crashed checkpoint in-process (no
	// jobs left to run) and compare the rebuilt catalog.
	res, err := Run(context.Background(), crashSpec(), RunConfig{
		Workers: 1, Checkpoint: filepath.Join(crashDir, "campaign.jsonl"), Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 || res.Resumed != 4 {
		t.Fatalf("crashed checkpoint resume ran %d jobs, resumed %d; want 0/4", res.Completed, res.Resumed)
	}
	if !reflect.DeepEqual(res.Catalog.Entries(), ref.Catalog.Entries()) {
		t.Errorf("catalog differs:\n got %+v\nwant %+v", res.Catalog.Entries(), ref.Catalog.Entries())
	}
}

func TestRetryBackoffDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseBackoff: 10 * time.Millisecond}
	for attempt := 1; attempt <= 4; attempt++ {
		a := retryBackoff(p, "job-x", attempt)
		b := retryBackoff(p, "job-x", attempt)
		if a != b {
			t.Fatalf("attempt %d backoff nondeterministic: %v vs %v", attempt, a, b)
		}
		nominal := p.BaseBackoff << (attempt - 1)
		if a < nominal*3/4 || a > nominal*5/4 {
			t.Errorf("attempt %d backoff %v outside ±25%% of %v", attempt, a, nominal)
		}
	}
	if a, b := retryBackoff(p, "job-x", 1), retryBackoff(p, "job-y", 1); a == b {
		t.Log("different jobs share a backoff (possible, just unlikely)") // not fatal: 1/1000 collision
	}
	// The shift must not overflow into a negative or absurd delay.
	if d := retryBackoff(RetryPolicy{BaseBackoff: time.Second}, "j", 40); d > 40*time.Second || d <= 0 {
		t.Errorf("attempt-40 backoff = %v, want capped near 30s", d)
	}
}

func TestRetryableErrorTaxonomy(t *testing.T) {
	retryable := []string{
		"panic: index out of range",
		"job timeout (30ms): context deadline exceeded",
		"injected fault at artifact.put",
		"write /tmp/x: input/output error",
		"read tcp: i/o timeout",
		"write |1: broken pipe",
		"open /tmp/x: no space left on device",
	}
	fatal := []string{
		"",
		"unknown explorer \"bogus\"",
		"context canceled",
		"context deadline exceeded", // bare, unclassified by the supervisor
		"campaign: environment 0: window too small",
	}
	for _, msg := range retryable {
		if !retryableError(msg) {
			t.Errorf("retryableError(%q) = false, want true", msg)
		}
	}
	for _, msg := range fatal {
		if retryableError(msg) {
			t.Errorf("retryableError(%q) = true, want false", msg)
		}
	}
}

// TestJobResultRoundTripWithRetryFields: the new fields must survive
// the checkpoint (resume uses Retryable to re-dispatch) and must not
// serialize at their zero values (byte-compat with pre-retry
// checkpoints).
func TestJobResultRoundTripWithRetryFields(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.jsonl")
	w, err := checkpointFormat.open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(JobResult{JobID: "a", Error: "job timeout (1s): x", Retryable: true, Attempts: 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.append(JobResult{JobID: "b", Converged: true, Accuracy: 1}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	blob, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if !strings.Contains(lines[0], `"attempts":3`) || !strings.Contains(lines[0], `"retryable":true`) {
		t.Errorf("retry fields not serialized: %s", lines[0])
	}
	if strings.Contains(lines[1], "attempts") || strings.Contains(lines[1], "retryable") {
		t.Errorf("zero retry fields leak into clean results (byte-compat break): %s", lines[1])
	}

	loaded, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if jr := loaded["a"]; jr.Attempts != 3 || !jr.Retryable {
		t.Errorf("round trip lost retry fields: %+v", jr)
	}
}

func TestWriterProgressAnnotatesRetries(t *testing.T) {
	var buf bytes.Buffer
	sink := WriterProgress(&buf)
	sink(Progress{
		Done: 1, Total: 2, MaxAttempts: 3,
		Result: &JobResult{Name: "flaky", Category: "prime+probe", Attempts: 2},
	})
	sink(Progress{
		Done: 2, Total: 2, MaxAttempts: 3,
		Result: &JobResult{Name: "clean", Category: "prime+probe"},
	})
	out := buf.String()
	if !strings.Contains(out, "[retry 2/3]") {
		t.Errorf("retried job not annotated:\n%s", out)
	}
	if strings.Count(out, "[retry") != 1 {
		t.Errorf("clean job annotated too:\n%s", out)
	}
}
