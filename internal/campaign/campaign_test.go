package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"autocat/internal/cache"
	"autocat/internal/env"
)

func gridSpec(seeds ...int64) Spec {
	return Spec{
		Name:        "test-grid",
		Caches:      []cache.Config{{NumBlocks: 2, NumWays: 1}},
		Policies:    []cache.PolicyKind{cache.LRU, cache.PLRU},
		Prefetchers: []cache.PrefetcherKind{cache.NoPrefetch, cache.NextLine},
		Attackers:   []AddrRange{{Lo: 0, Hi: 1}},
		Victims:     []AddrRange{{Lo: 0, Hi: 0}},
		Seeds:       seeds,
		FlushEnable: true, VictimNoAccess: true,
		WindowSize: 8,
		Epochs:     20,
	}
}

func TestExpandGridCount(t *testing.T) {
	jobs, skipped, err := gridSpec(1, 2).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 {
		t.Fatalf("2 policies × 2 prefetchers × 2 seeds = 8 jobs, got %d", len(jobs))
	}
	if skipped != 0 {
		t.Fatalf("no combination is invalid, got %d skipped", skipped)
	}
	for i, j := range jobs {
		if j.Index != i {
			t.Fatalf("job %d has index %d", i, j.Index)
		}
		if err := j.Scenario.Env.Validate(); err != nil {
			t.Fatalf("job %d invalid: %v", i, err)
		}
	}
}

func TestExpandDedupAndStableIDs(t *testing.T) {
	// Duplicate seed values collapse to one replicate.
	dup, _, err := gridSpec(1, 1).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(dup) != 4 {
		t.Fatalf("duplicate seeds must dedup: got %d jobs, want 4", len(dup))
	}
	// IDs are stable across expansions (what resume relies on).
	a, _, _ := gridSpec(1, 2).Expand()
	b, _, _ := gridSpec(1, 2).Expand()
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("job %d ID changed across expansions: %s vs %s", i, a[i].ID, b[i].ID)
		}
	}
	// An explicit scenario identical to a grid point dedups too.
	s := gridSpec(1, 2)
	s.Scenarios = append(s.Scenarios, a[0].Scenario)
	c, _, _ := s.Expand()
	if len(c) != len(a) {
		t.Fatalf("explicit duplicate of a grid point must dedup: %d vs %d", len(c), len(a))
	}
}

func TestExpandSkipsInvalidCombos(t *testing.T) {
	s := gridSpec(1)
	// Tree-PLRU needs a power-of-two way count: 3-way combos are invalid.
	s.Caches = append(s.Caches, cache.Config{NumBlocks: 3, NumWays: 3})
	jobs, skipped, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 3b3w: PLRU invalid (2 prefetcher variants skipped), LRU valid.
	if skipped != 2 {
		t.Fatalf("expected 2 skipped grid points, got %d", skipped)
	}
	if len(jobs) != 4+2 {
		t.Fatalf("expected 6 jobs, got %d", len(jobs))
	}
}

func TestExpandEmptySpec(t *testing.T) {
	if _, _, err := (Spec{}).Expand(); err == nil {
		t.Fatal("empty spec must be rejected")
	}
}

func TestCatalogConcurrency(t *testing.T) {
	c := NewCatalog()
	const workers = 16
	const perWorker = 500
	const keys = 37
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := fmt.Sprintf("A0 V A0 G%d", (w+i)%keys)
				c.Record(k, "0→v→0→g", "prime+probe", fmt.Sprintf("job-%d-%d", w, i), float64(i%100)/100)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Len(); got != keys {
		t.Fatalf("catalog Len = %d, want %d", got, keys)
	}
	total, perShard := c.Stats()
	if total.Hits+total.Misses != workers*perWorker {
		t.Fatalf("hits+misses = %d, want %d", total.Hits+total.Misses, workers*perWorker)
	}
	if total.Misses != keys {
		t.Fatalf("misses = %d, want %d (one per distinct key)", total.Misses, keys)
	}
	sum := 0
	for _, s := range perShard {
		sum += s.Entries
	}
	if sum != keys {
		t.Fatalf("per-shard entries sum to %d, want %d", sum, keys)
	}
	count := 0
	for _, e := range c.Entries() {
		count += e.Count
	}
	if count != workers*perWorker {
		t.Fatalf("entry counts sum to %d, want %d", count, workers*perWorker)
	}
}

func TestCanonicalizeRelabelsAddresses(t *testing.T) {
	mk := func(attLo, attHi, vicLo, vicHi cache.Addr) *env.Env {
		e, err := env.New(env.Config{
			Cache:      cache.Config{NumBlocks: 8, NumWays: 1},
			AttackerLo: attLo, AttackerHi: attHi,
			VictimLo: vicLo, VictimHi: vicHi,
			WindowSize: 20,
			Seed:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// The paper's 7→4→5→v→7→5→4→g0 on attacker 4-7 / victim 0-3 ...
	e1 := mk(4, 7, 0, 3)
	seq1 := []int{
		e1.AccessAction(7), e1.AccessAction(4), e1.AccessAction(5),
		e1.VictimAction(),
		e1.AccessAction(7), e1.AccessAction(5), e1.AccessAction(4),
		e1.GuessAction(0),
	}
	// ... and the same attack shape on attacker 0-3 / victim 4-7.
	e2 := mk(0, 3, 4, 7)
	seq2 := []int{
		e2.AccessAction(3), e2.AccessAction(0), e2.AccessAction(1),
		e2.VictimAction(),
		e2.AccessAction(3), e2.AccessAction(1), e2.AccessAction(0),
		e2.GuessAction(4),
	}
	c1, c2 := Canonicalize(e1, seq1), Canonicalize(e2, seq2)
	if c1 != c2 {
		t.Fatalf("equivalent attacks canonicalize differently:\n%s\n%s", c1, c2)
	}
	if want := "A0 A1 A2 V A0 A2 A1 G0"; c1 != want {
		t.Fatalf("canonical form = %q, want %q", c1, want)
	}
	// A genuinely different attack (different probe order) must differ.
	seq3 := append([]int(nil), seq1...)
	seq3[4], seq3[5] = seq1[5], seq1[4]
	if Canonicalize(e1, seq3) == c1 {
		t.Fatal("distinct probe orders must not collide")
	}
	// The same action shape over a victim-shared address (a reload) and
	// over a private address (a conflict probe) are different attacks
	// and must not share a catalog key.
	shared := mk(0, 3, 0, 3)
	reload := []int{shared.AccessAction(1), shared.VictimAction(), shared.AccessAction(1), shared.GuessAction(1)}
	private := mk(4, 7, 0, 3)
	probe := []int{private.AccessAction(5), private.VictimAction(), private.AccessAction(5), private.GuessAction(1)}
	cs, cp := Canonicalize(shared, reload), Canonicalize(private, probe)
	if cs == cp {
		t.Fatalf("shared-address reload and private probe collided: %q", cs)
	}
	if want := "A0s V A0s G1"; cs != want {
		t.Fatalf("shared canonical form = %q, want %q", cs, want)
	}
}

// stubRunner fabricates deterministic results without RL training: jobs
// alternate between two canonical attacks by seed parity, so the final
// catalog shape is predictable.
func stubRunner(calls *int32, mu *sync.Mutex) Runner {
	return func(ctx context.Context, job Job) JobResult {
		mu.Lock()
		*calls++
		mu.Unlock()
		seed := job.Scenario.Env.Seed
		key := fmt.Sprintf("A0 V A0 G%d", seed%2)
		return JobResult{
			Sequence:  fmt.Sprintf("0→v→0→g%d", seed%2),
			Canonical: key,
			Category:  "prime+probe",
			Converged: true,
			Accuracy:  1,
		}
	}
}

func TestRunPoolAndCatalog(t *testing.T) {
	var calls int32
	var mu sync.Mutex
	spec := gridSpec(1, 2)
	var events []Progress
	res, err := Run(context.Background(), spec, RunConfig{
		Workers:  4,
		Runner:   stubRunner(&calls, &mu),
		Progress: func(p Progress) { events = append(events, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 8 || calls != 8 {
		t.Fatalf("completed %d jobs with %d runner calls, want 8/8", res.Completed, calls)
	}
	if res.Catalog.Len() != 2 {
		t.Fatalf("catalog has %d entries, want 2 (seed parity)", res.Catalog.Len())
	}
	for i, jr := range res.Jobs {
		if jr.Index != i || jr.JobID == "" {
			t.Fatalf("job slot %d not filled: %+v", i, jr)
		}
	}
	// Progress: one "job" event per job, Done reaching Total.
	if n := countEvents(events, EventJob); n != 8 {
		t.Fatalf("job events = %d, want 8", n)
	}
	if last := events[len(events)-1]; last.Done != 8 || last.Total != 8 {
		t.Fatalf("final progress %d/%d, want 8/8", last.Done, last.Total)
	}
}

// countEvents counts the progress events of one kind.
func countEvents(events []Progress, kind string) int {
	n := 0
	for _, p := range events {
		if p.Event == kind {
			n++
		}
	}
	return n
}

func TestCheckpointResumeIdenticalCatalog(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.jsonl")
	spec := gridSpec(1, 2)

	// Reference: the full campaign in one go.
	var refCalls int32
	var mu sync.Mutex
	ref, err := Run(context.Background(), spec, RunConfig{
		Workers: 2, Runner: stubRunner(&refCalls, &mu),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted campaign: cancel after 3 completions. Workers=1 makes
	// the cut deterministic.
	ctx, cancel := context.WithCancel(context.Background())
	var n int32
	inner := stubRunner(&n, &mu)
	_, err = Run(ctx, spec, RunConfig{
		Workers:    1,
		Checkpoint: ckpt,
		Runner: func(ctx2 context.Context, job Job) JobResult {
			jr := inner(ctx2, job)
			mu.Lock()
			if n >= 3 {
				cancel()
			}
			mu.Unlock()
			return jr
		},
	})
	if err == nil {
		t.Fatal("cancelled campaign should return the context error")
	}
	if n != 3 {
		t.Fatalf("interrupted run executed %d jobs, want 3", n)
	}

	// Resume: only the remaining 5 jobs run; the final catalog matches
	// the uninterrupted reference exactly.
	var resumedCalls int32
	res, err := Run(context.Background(), spec, RunConfig{
		Workers: 2, Checkpoint: ckpt, Resume: true,
		Runner: stubRunner(&resumedCalls, &mu),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 3 || res.Completed != 5 || resumedCalls != 5 {
		t.Fatalf("resume skipped %d / ran %d (calls %d), want 3/5/5", res.Resumed, res.Completed, resumedCalls)
	}
	got, want := res.Catalog.Entries(), ref.Catalog.Entries()
	if len(got) != len(want) {
		t.Fatalf("resumed catalog has %d entries, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || got[i].Count != want[i].Count ||
			got[i].Category != want[i].Category || got[i].Sequence != want[i].Sequence {
			t.Fatalf("entry %d differs after resume:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	// Per-job results also survive the round trip (modulo duration).
	for i := range res.Jobs {
		a, b := res.Jobs[i], ref.Jobs[i]
		a.DurationMS, b.DurationMS = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("job %d differs after resume:\n got %+v\nwant %+v", i, a, b)
		}
	}

	// A second resume of the finished campaign runs nothing.
	var idleCalls int32
	res, err = Run(context.Background(), spec, RunConfig{
		Workers: 2, Checkpoint: ckpt, Resume: true,
		Runner: stubRunner(&idleCalls, &mu),
	})
	if err != nil {
		t.Fatal(err)
	}
	if idleCalls != 0 || res.Resumed != 8 {
		t.Fatalf("finished campaign re-ran %d jobs (resumed %d)", idleCalls, res.Resumed)
	}
}

func TestLoadCheckpointToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.jsonl")
	full := `{"job_id":"aaaa","index":0,"name":"j0","converged":true,"epochs":1,"accuracy":1,"mean_length":3,"duration_ms":5}` + "\n"
	torn := `{"job_id":"bbbb","ind`
	if err := os.WriteFile(path, []byte(full+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if len(got) != 1 || got["aaaa"].Name != "j0" {
		t.Fatalf("checkpoint contents wrong: %+v", got)
	}

	// Appending after a torn tail must truncate the fragment first, or
	// the new record concatenates onto it and poisons later resumes.
	if err := os.WriteFile(path, []byte(full+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := checkpointFormat.open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(JobResult{JobID: "cccc", Name: "j2"}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err = LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("checkpoint unloadable after torn-tail append: %v", err)
	}
	if len(got) != 2 || got["cccc"].Name != "j2" {
		t.Fatalf("torn-tail append lost records: %+v", got)
	}

	// A complete final record that only lost its newline must be
	// repaired, not deleted: LoadCheckpoint accepts it, so truncation
	// would silently drop a finished job.
	noNL := full + `{"job_id":"dddd","index":1,"name":"j1","converged":true,"epochs":1,"accuracy":1,"mean_length":3,"duration_ms":5}`
	if err := os.WriteFile(path, []byte(noNL), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err = checkpointFormat.open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(JobResult{JobID: "eeee", Name: "j3"}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err = LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got["dddd"].Name != "j1" || got["eeee"].Name != "j3" {
		t.Fatalf("newline-less complete record mishandled: %+v", got)
	}

	// A malformed line in the middle is corruption, not a torn tail.
	if err := os.WriteFile(path, []byte(torn+"\n"+full), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("mid-file corruption must be rejected")
	}

	// Missing file = empty checkpoint.
	got, err = LoadCheckpoint(filepath.Join(dir, "missing.jsonl"))
	if err != nil || len(got) != 0 {
		t.Fatalf("missing checkpoint: %v, %d entries", err, len(got))
	}
}

// TestRunExplorerEndToEnd exercises the real runner on the smallest
// learnable grid: a 1-line cache where prime-trigger-probe-guess
// converges in a handful of epochs.
func TestRunExplorerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains RL agents; skipped in -short mode")
	}
	spec := Spec{
		Name:           "e2e",
		Caches:         []cache.Config{{NumBlocks: 1, NumWays: 1}},
		Attackers:      []AddrRange{{Lo: 1, Hi: 1}},
		Victims:        []AddrRange{{Lo: 0, Hi: 0}},
		Seeds:          []int64{7, 8},
		VictimNoAccess: true,
		WindowSize:     6,
		Warmup:         -1,
		Epochs:         40,
		StepsPerEpoch:  2048,
	}
	res, err := Run(context.Background(), spec, RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 || res.Failed != 0 {
		t.Fatalf("completed=%d failed=%d", res.Completed, res.Failed)
	}
	for _, jr := range res.Jobs {
		if !jr.Converged || jr.Canonical == "" {
			t.Fatalf("job %s did not find an attack: %+v", jr.Name, jr)
		}
	}
	if res.Catalog.Len() < 1 {
		t.Fatal("catalog is empty")
	}
}
