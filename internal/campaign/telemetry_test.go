package campaign

import (
	"context"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autocat/internal/cache"
	"autocat/internal/obs"
)

func countKinds(events []obs.Event) map[string]int {
	kinds := map[string]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	return kinds
}

// TestRunJournalEvents drives the scheduler with the stub runner and
// checks the journal captures the full campaign lifecycle with correct
// attribution and catalog-novelty marks.
func TestRunJournalEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	j, err := obs.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var calls int32
	var mu sync.Mutex
	spec := gridSpec(1, 2) // 8 jobs, 8 distinct scenario names
	res, err := Run(context.Background(), spec, RunConfig{
		Workers: 4,
		Runner:  stubRunner(&calls, &mu),
		Journal: j,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	events, skipped, err := ReadJournalForTest(path)
	if err != nil || skipped != 0 {
		t.Fatalf("read journal: err=%v skipped=%d", err, skipped)
	}
	kinds := countKinds(events)
	if kinds[obs.EvCampaignStart] != 1 || kinds[obs.EvCampaignDone] != 1 {
		t.Fatalf("campaign lifecycle events: %v", kinds)
	}
	if kinds[obs.EvJobStart] != 8 || kinds[obs.EvJobDone] != 8 {
		t.Fatalf("job events: %v, want 8 start + 8 done", kinds)
	}
	// Every scenario name is unique and the stub always extracts an
	// attack, so each job is its scenario's first reliable attack.
	if kinds[obs.EvFirstReliable] != 8 {
		t.Fatalf("first-reliable events = %d, want 8", kinds[obs.EvFirstReliable])
	}
	novel := 0
	for _, ev := range events {
		if ev.Kind == obs.EvJobDone {
			if ev.Job == "" || ev.Name == "" {
				t.Fatalf("job.done without attribution: %+v", ev)
			}
			if m, ok := ev.Data.(map[string]any); ok && m["novel"] == true {
				novel++
			}
		}
	}
	if novel != res.Catalog.Len() {
		t.Fatalf("journal marks %d novel attacks, catalog has %d", novel, res.Catalog.Len())
	}

	// Resume over the finished checkpoint must not re-journal
	// first-reliable marks for already-solved scenarios.
}

// TestRunStagedJournal runs a staged search campaign with a journal and
// feeds the journal through the stats report builder — the end-to-end
// path `autocat stats` uses.
func TestRunStagedJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	j, err := obs.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Name:           "staged-telemetry",
		Caches:         []cache.Config{{NumBlocks: 1, NumWays: 1}},
		Attackers:      []AddrRange{{Lo: 1, Hi: 1}},
		Victims:        []AddrRange{{Lo: 0, Hi: 0}},
		Seeds:          []int64{7, 8},
		VictimNoAccess: true,
		WindowSize:     6,
		Warmup:         -1,
	}
	staged, err := RunStaged(context.Background(), spec, RunConfig{Workers: 2, Journal: j},
		[]string{ExplorerSearch, ExplorerPPO})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if staged.Catalog.Len() == 0 {
		t.Fatal("staged run found nothing; the telemetry assertions below would be vacuous")
	}

	events, skipped, err := ReadJournalForTest(path)
	if err != nil || skipped != 0 {
		t.Fatalf("read journal: err=%v skipped=%d", err, skipped)
	}
	kinds := countKinds(events)
	if kinds[obs.EvStageStart] == 0 || kinds[obs.EvStageDone] == 0 {
		t.Fatalf("missing stage lifecycle events: %v", kinds)
	}
	if kinds[obs.EvFirstReliable] == 0 {
		t.Fatalf("no first-reliable events: %v", kinds)
	}

	rep := obs.BuildRunReport(events, nil)
	if rep.Jobs == 0 || rep.Stages == 0 {
		t.Fatalf("report lost jobs/stages: %+v", rep)
	}
	if len(rep.FirstReliable) == 0 {
		t.Fatal("report has no time-to-first-reliable entries")
	}
	for _, fr := range rep.FirstReliable {
		if fr.Elapsed < 0 {
			t.Fatalf("negative time-to-first-reliable: %+v", fr)
		}
	}
}

// TestJournalPPOEpochEvents checks the context-scoped plumbing from
// campaign.Run through the PPO backend into the trainer: per-epoch
// stats must land in the journal attributed to their job.
func TestJournalPPOEpochEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an RL agent; skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	j, err := obs.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Name:           "ppo-telemetry",
		Caches:         []cache.Config{{NumBlocks: 1, NumWays: 1}},
		Attackers:      []AddrRange{{Lo: 1, Hi: 1}},
		Victims:        []AddrRange{{Lo: 0, Hi: 0}},
		Seeds:          []int64{7},
		VictimNoAccess: true,
		WindowSize:     6,
		Warmup:         -1,
		Epochs:         40,
		StepsPerEpoch:  2048,
	}
	res, err := Run(context.Background(), spec, RunConfig{Workers: 1, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.Failed != 0 {
		t.Fatalf("completed=%d failed=%d", res.Completed, res.Failed)
	}
	events, _, err := ReadJournalForTest(path)
	if err != nil {
		t.Fatal(err)
	}
	epochs := 0
	for _, ev := range events {
		if ev.Kind != obs.EvPPOEpoch {
			continue
		}
		epochs++
		if ev.Job == "" || ev.Name == "" {
			t.Fatalf("ppo.epoch without job attribution: %+v", ev)
		}
		if ev.DurMS <= 0 {
			t.Fatalf("ppo.epoch without duration: %+v", ev)
		}
		if m, ok := ev.Data.(map[string]any); !ok || m["Epoch"] == nil {
			t.Fatalf("ppo.epoch without EpochStats payload: %+v", ev)
		}
	}
	if epochs != res.Jobs[0].Epochs {
		t.Fatalf("journal has %d ppo.epoch events, job trained %d epochs", epochs, res.Jobs[0].Epochs)
	}
}

// TestProgressThroughputAndETA checks the new pacing fields: a rate
// appears once jobs complete and the ETA drains to zero at the end.
func TestProgressThroughputAndETA(t *testing.T) {
	var calls int32
	var mu sync.Mutex
	inner := stubRunner(&calls, &mu)
	var events []Progress
	_, err := Run(context.Background(), gridSpec(1, 2), RunConfig{
		Workers: 2,
		Runner: func(ctx context.Context, job Job) JobResult {
			time.Sleep(2 * time.Millisecond) // give the rate a nonzero base
			return inner(ctx, job)
		},
		Progress: func(p Progress) { events = append(events, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 9 {
		t.Fatalf("progress events = %d, want 9 (delivery is lossless when the sink keeps up)", len(events))
	}
	if events[0].JobsPerSec != 0 || events[0].ETA != 0 {
		t.Fatalf("initial event should carry no rate: %+v", events[0])
	}
	sawETA := false
	for _, p := range events[1:] {
		if p.JobsPerSec <= 0 {
			t.Fatalf("completed-job event without a rate: %+v", p)
		}
		if p.Elapsed <= 0 {
			t.Fatalf("event without elapsed time: %+v", p)
		}
		if p.Done < p.Total && p.ETA > 0 {
			sawETA = true
		}
	}
	if !sawETA {
		t.Fatal("no mid-campaign event carried an ETA")
	}
	if last := events[len(events)-1]; last.ETA != 0 {
		t.Fatalf("final event still has ETA %v, want 0", last.ETA)
	}
}

// TestProgressDispatcherDropsWhenSinkStalls pins the dispatcher
// contract: a sink slower than the workers never stalls the campaign —
// excess events are dropped and counted instead. The sink's first call
// blocks until every job has returned from the runner, so if workers
// ever waited on the sink the campaign would deadlock and the sink's
// timeout would fail the test.
func TestProgressDispatcherDropsWhenSinkStalls(t *testing.T) {
	var calls int32
	var mu sync.Mutex
	seeds := make([]int64, progressBuffer/4+16) // gridSpec: 4 jobs per seed
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	jobs := int32(4 * len(seeds))
	var returned atomic.Int32
	allReturned := make(chan struct{})
	stub := stubRunner(&calls, &mu)
	runner := func(ctx context.Context, job Job) JobResult {
		jr := stub(ctx, job)
		if returned.Add(1) == jobs {
			close(allReturned)
		}
		return jr
	}
	dropsBefore := obs.CampaignProgressDrops.Load()
	delivered := 0
	_, err := Run(context.Background(), gridSpec(seeds...), RunConfig{
		Workers: 4,
		Runner:  runner,
		Progress: func(Progress) {
			if delivered == 0 {
				select {
				case <-allReturned:
				case <-time.After(10 * time.Second):
					t.Error("jobs never all returned while the sink stalled: workers wait on the sink")
				}
			}
			delivered++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	drops := obs.CampaignProgressDrops.Load() - dropsBefore
	if drops == 0 {
		t.Fatalf("expected drops with %d jobs against a stalled sink (delivered %d)", jobs, delivered)
	}
	total := int(jobs) + 1 // every job + the initial event
	if delivered+int(drops) != total {
		t.Fatalf("delivered %d + dropped %d != emitted %d", delivered, drops, total)
	}
}

// ReadJournalForTest re-exports obs.ReadJournal under a name that makes
// campaign test intent explicit.
func ReadJournalForTest(path string) ([]obs.Event, int, error) { return obs.ReadJournal(path) }
