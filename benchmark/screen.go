package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"autocat/internal/cache"
	"autocat/internal/campaign"
	"autocat/internal/obs"
)

// screenWorkload is stage-1 screening: back-to-back search-explorer
// campaigns ("rounds") over one grid, each round on the next seed, with
// the checkpoint, the journal and the artifact store on. A round is a
// whole campaign, run to completion.
type screenWorkload struct {
	grid campaign.Spec // every axis but Seeds
}

// screenGrid is the replay-deterministic grid: its jobs run on the
// incremental snapshot walker. Partition points exhaust their search
// budget, the way a closed channel does.
func screenGrid() campaign.Spec {
	return campaign.Spec{
		Name:      "screen",
		Caches:    []cache.Config{{NumBlocks: 4, NumWays: 1}, {NumBlocks: 4, NumWays: 4}, {NumBlocks: 8, NumWays: 2}},
		Policies:  []cache.PolicyKind{cache.LRU, cache.PLRU, cache.RRIP},
		Attackers: []campaign.AddrRange{{Lo: 4, Hi: 7}, {Lo: 0, Hi: 3}},
		Victims:   []campaign.AddrRange{{Lo: 0, Hi: 0}, {Lo: 0, Hi: 3}},
		Defenses:  []string{campaign.DefenseNone, campaign.DefensePartition},
		Explorers: []string{campaign.ExplorerSearch},

		FlushEnable:    true,
		VictimNoAccess: true,
		Warmup:         -1,
	}
}

// screenRNGGrid has the same shape on configurations that draw from an
// RNG mid-episode (random replacement, skewed and rekeyed mappings), so
// search falls back to the re-simulating scan and takes no snapshots.
func screenRNGGrid() campaign.Spec {
	g := screenGrid()
	g.Name = "screen-rng"
	g.Policies = []cache.PolicyKind{cache.Random, cache.LRU}
	g.Defenses = []string{campaign.DefenseSkew, campaign.DefenseCEASER}
	g.RekeyPeriods = []int{32}
	return g
}

// roundSpec is round r's campaign: the grid on seed seed·1000+r+1, so
// runs with different seeds share no job.
func (w screenWorkload) roundSpec(seed int64, r int) campaign.Spec {
	spec := w.grid
	spec.Name = fmt.Sprintf("%s-%d-r%d", w.grid.Name, seed, r)
	spec.Seeds = []int64{seed*1000 + int64(r) + 1}
	return spec
}

type screenRound struct {
	spec       campaign.Spec
	checkpoint string
	res        *campaign.Result
	wall       time.Duration
}

type screenInstance struct {
	w       screenWorkload
	seed    int64
	dir     string
	store   *campaign.ArtifactStore
	journal *obs.Journal
	catalog *campaign.Catalog
	rounds  []screenRound

	verifyWall time.Duration
	replays    int
}

func (w screenWorkload) setup(seed int64, _ time.Duration, dir string) (instance, error) {
	store, err := campaign.OpenArtifactStore(filepath.Join(dir, "artifacts"))
	if err != nil {
		return nil, err
	}
	journal, err := obs.OpenJournal(filepath.Join(dir, "telemetry.jsonl"))
	if err != nil {
		store.Close()
		return nil, err
	}
	return &screenInstance{w: w, seed: seed, dir: dir, store: store, journal: journal, catalog: campaign.NewCatalog()}, nil
}

// measure runs rounds until the deadline has passed; the rate and the
// CPU time per job are medians over the rounds.
func (s *screenInstance) measure(ctx context.Context, d time.Duration, tr *tracer) (measurement, error) {
	deadline := time.Now().Add(d)
	var rates, cpus []float64
	jobs := 0
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		cpu0 := cpuTime()
		round, err := s.round(ctx, r, tr)
		if err != nil {
			return measurement{}, err
		}
		cpu := cpuTime() - cpu0
		s.rounds = append(s.rounds, round)
		jobs += round.res.Completed
		rates = append(rates, float64(round.res.Completed)/round.wall.Seconds())
		cpus = append(cpus, ratio(float64(cpu.Nanoseconds())/1e6, float64(round.res.Completed)))
	}
	return measurement{ops: float64(jobs), rate: quantile(rates, 0.5), cpuPerOp: quantile(cpus, 0.5),
		note: fmt.Sprintf("(median of %d rounds, %d jobs)", len(rates), jobs)}, nil
}

// round runs one campaign. When tracing, the runner handed to the
// campaign wraps the production runner with a span per call, and the
// progress sink records the gap from the runner's return to delivery:
// the catalog record, the journal, the checkpoint write and the
// dispatcher hop.
func (s *screenInstance) round(ctx context.Context, r int, tr *tracer) (screenRound, error) {
	spec := s.w.roundSpec(s.seed, r)
	dir := filepath.Join(s.dir, fmt.Sprintf("round-%03d", r))
	if err := os.Mkdir(dir, 0o755); err != nil {
		return screenRound{}, err
	}
	round := screenRound{spec: spec, checkpoint: filepath.Join(dir, "campaign.jsonl")}

	base := campaign.NewExplorerRunner(campaign.RunnerOptions{Artifacts: s.store})
	parent := tr.open("screen.round", strconv.Itoa(r), -1)
	var mu sync.Mutex
	returned := map[string]time.Time{}
	runner := base
	if tr != nil {
		runner = func(ctx context.Context, job campaign.Job) campaign.JobResult {
			t0 := time.Now()
			jr := base(ctx, job)
			t1 := time.Now()
			tr.add("campaign.job", job.ID, parent, t0, t1)
			mu.Lock()
			returned[job.ID] = t1
			mu.Unlock()
			return jr
		}
	}
	progress := func(p campaign.Progress) {
		if p.Result == nil || tr == nil {
			return
		}
		now := time.Now()
		mu.Lock()
		t1, ok := returned[p.Result.JobID]
		mu.Unlock()
		if ok {
			tr.add("campaign.deliver", p.Result.JobID, parent, t1, now)
		}
	}
	t0 := time.Now()
	res, err := campaign.Run(ctx, spec, campaign.RunConfig{
		Workers:    2,
		Checkpoint: round.checkpoint,
		Journal:    s.journal,
		Runner:     runner,
		Progress:   progress,
		Catalog:    s.catalog,
	})
	round.wall = time.Since(t0)
	tr.close(parent)
	if err != nil {
		return round, fmt.Errorf("round %d: %w", r, err)
	}
	round.res = res
	return round, nil
}

// verify checks every round's checkpoint holds each of its jobs, that no
// job failed, and that every stored artifact replays bit for bit.
func (s *screenInstance) verify(tr *tracer) (verdict, error) {
	var v verdict
	for _, round := range s.rounds {
		jobs, _, err := round.spec.Expand()
		if err != nil {
			return v, err
		}
		saved, err := campaign.LoadCheckpoint(round.checkpoint)
		if err != nil {
			return v, err
		}
		for _, job := range jobs {
			v.attempted++
			jr, ok := saved[job.ID]
			switch {
			case !ok:
				v.fail("job %s (%s) missing from checkpoint %s", job.ID, job.Scenario.Name, round.checkpoint)
			case jr.Error != "":
				v.fail("job %s (%s): %s", job.ID, job.Scenario.Name, jr.Error)
			}
		}
	}
	seq := tr.open("artifact.verify", "all", -1)
	t0 := time.Now()
	reports, err := s.store.VerifyAll()
	s.verifyWall = time.Since(t0)
	tr.close(seq)
	if err != nil {
		return v, err
	}
	s.replays = len(reports)
	for _, rep := range reports {
		v.attempted++
		if !rep.Match {
			v.fail("artifact %s replays %q, stored %q", rep.Artifact.ID, rep.Sequence, rep.Artifact.Sequence)
		}
	}
	return v, nil
}

func (s *screenInstance) layer(m map[string]float64, notes map[string]string) {
	var bytes int64
	for _, round := range s.rounds {
		if fi, err := os.Stat(round.checkpoint); err == nil {
			bytes += fi.Size()
		}
	}
	m["campaign.checkpoint_bytes"] = float64(bytes)
	m["catalog.attacks_found"] = float64(s.catalog.Len())
	m["artifact.count"] = float64(s.replays)
	m["artifact.replay_ms_mean"] = ratio(float64(s.verifyWall.Nanoseconds())/1e6, float64(s.replays))
	notes["artifact.replay_ms_mean"] = fmt.Sprintf("(n=%d)", s.replays)
}

func (s *screenInstance) close() error {
	jerr := s.journal.Close()
	if err := s.store.Close(); err != nil {
		return err
	}
	return jerr
}
