package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"autocat/internal/cache"
	"autocat/internal/core"
	"autocat/internal/env"
	"autocat/internal/exp"
	"autocat/internal/nn"
	"autocat/internal/rl"
)

// trainScenario is one narrow, reliably learnable guessing game and its
// epoch budget.
type trainScenario struct {
	name   string
	epochs int
	env    env.Config
}

// trainScenarios are the first-reliable suite's scenarios, copied here so
// an edit to the suite cannot change the workload. They are listed
// longest first (measured wall-clock to the first reliable attack).
func trainScenarios() []trainScenario {
	return []trainScenario{
		{name: "pp-fa2", epochs: 80, env: env.Config{
			Cache:      cache.Config{NumBlocks: 2, NumWays: 2, Policy: cache.LRU},
			AttackerLo: 1, AttackerHi: 2, VictimLo: 0, VictimHi: 0,
			VictimNoAccess: true, WindowSize: 8,
		}},
		{name: "pp-dm2", epochs: 80, env: env.Config{
			Cache:      cache.Config{NumBlocks: 2, NumWays: 1, Policy: cache.LRU},
			AttackerLo: 2, AttackerHi: 3, VictimLo: 0, VictimHi: 1,
			WindowSize: 10,
		}},
		{name: "fr-shared", epochs: 60, env: env.Config{
			Cache:      cache.Config{NumBlocks: 4, NumWays: 4, Policy: cache.LRU},
			AttackerLo: 0, AttackerHi: 0, VictimLo: 0, VictimHi: 0,
			FlushEnable: true, VictimNoAccess: true, WindowSize: 8,
		}},
		{name: "pp-onebit", epochs: 60, env: env.Config{
			Cache:      cache.Config{NumBlocks: 1, NumWays: 1},
			AttackerLo: 1, AttackerHi: 1, VictimLo: 0, VictimHi: 0,
			VictimNoAccess: true, WindowSize: 6, Warmup: -1,
		}},
	}
}

// trainWorkload trains PPO to the first reliable attack on every
// scenario at two seeds per round, on trainLanes parallel lanes. Each lane
// holds one compute token while it trains, as a campaign worker does.
type trainWorkload struct {
	scenarios []trainScenario
}

const (
	trainLanes         = 2
	trainStepsPerEpoch = 3000
)

// trainTask is one training run.
type trainTask struct {
	scenario string
	cfg      core.Config
}

// task returns the i-th training of the endless schedule: round r runs
// every scenario at seeds 101·(2n−1) and 101·2n, n = seed + 10⁶·r, the
// first seed of every scenario before the second.
func (w trainWorkload) task(seed int64, i int) trainTask {
	per := 2 * len(w.scenarios)
	r, k := i/per, i%per
	n := seed + 1_000_000*int64(r)
	sc := w.scenarios[k%len(w.scenarios)]
	s := 101 * (2*n - 1)
	if k >= len(w.scenarios) {
		s = 101 * 2 * n
	}
	e := sc.env
	e.Seed = s
	return trainTask{scenario: sc.name, cfg: core.Config{Env: e, PPO: rl.PPOConfig{
		StepsPerEpoch:   trainStepsPerEpoch,
		MaxEpochs:       sc.epochs,
		EntAnnealEpochs: sc.epochs / 2,
		ExploreEps:      0.35,
		Seed:            s,
		// A fixed gradient shard count keeps step counts independent of
		// the machine.
		Workers: 4,
	}}}
}

// training is one finished run.
type training struct {
	task trainTask
	res  exp.FirstReliableResult
	err  error
	wall time.Duration
}

type trainInstance struct {
	w         trainWorkload
	seed      int64
	trainings []training
}

func (w trainWorkload) setup(seed int64, _ time.Duration, _ string) (instance, error) {
	return &trainInstance{w: w, seed: seed}, nil
}

// measure keeps every lane training until the deadline: a lane starts no
// training after it and finishes the one in flight. The rate is steps
// per second with every lane busy, for a mix of equal steps in every
// scenario: the lanes over the mean, across scenarios, of training
// wall-clock per step. Taking the mix from the run instead would make
// the rate depend on which scenarios the deadline cut off, and a run
// holds only about a dozen trainings. The CPU time per step is the
// process CPU time per lane-second of training times the same mean.
func (t *trainInstance) measure(ctx context.Context, d time.Duration, tr *tracer) (measurement, error) {
	cpu0 := cpuTime()
	deadline := time.Now().Add(d)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for lane := range trainLanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parent := tr.open("train.lane", fmt.Sprint(lane), -1)
			defer tr.close(parent)
			for time.Now().Before(deadline) {
				task := t.w.task(t.seed, int(next.Add(1)-1))
				nn.AcquireComputeToken()
				s0 := time.Now()
				res, err := exp.FirstReliable(ctx, task.cfg)
				s1 := time.Now()
				nn.ReleaseComputeToken()
				tr.add("train.first_reliable", fmt.Sprintf("%s/%d", task.scenario, task.cfg.Env.Seed), parent, s0, s1)
				mu.Lock()
				t.trainings = append(t.trainings, training{task: task, res: res, err: err, wall: s1.Sub(s0)})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	type scenarioSum struct {
		steps int
		wall  time.Duration
	}
	sums := map[string]*scenarioSum{}
	steps := 0
	var busy time.Duration
	for _, tg := range t.trainings {
		s := sums[tg.task.scenario]
		if s == nil {
			s = &scenarioSum{}
			sums[tg.task.scenario] = s
		}
		s.steps += tg.res.Steps
		s.wall += tg.wall
		steps += tg.res.Steps
		busy += tg.wall
	}
	secPerStep := 0.0
	for _, s := range sums {
		secPerStep += ratio(s.wall.Seconds(), float64(s.steps)) / float64(len(sums))
	}
	return measurement{ops: float64(steps), rate: ratio(trainLanes, secPerStep),
		cpuPerOp: ratio(cpu.Seconds(), busy.Seconds()) * secPerStep * 1000,
		note:     fmt.Sprintf("(%d scenarios weighted equally, %d steps in %d trainings)", len(sums), steps, len(t.trainings))}, nil
}

// verify requires every training to have reached a reliable attack.
func (t *trainInstance) verify(*tracer) (verdict, error) {
	var v verdict
	for _, tg := range t.trainings {
		v.attempted++
		switch {
		case tg.err != nil:
			v.fail("%s seed %d: %v", tg.task.scenario, tg.task.cfg.Env.Seed, tg.err)
		case !tg.res.Reliable:
			v.fail("%s seed %d: no reliable attack in %d epochs", tg.task.scenario, tg.task.cfg.Env.Seed, tg.res.Epochs)
		}
	}
	return v, nil
}

// layer reports the trainings' own accounting. The evaluation time is
// the training wall-clock the PPO epochs (already in m) do not cover:
// the per-epoch greedy evaluation and attack extraction.
func (t *trainInstance) layer(m map[string]float64, notes map[string]string) {
	var firstMS, firstSteps, wallMS float64
	for _, tg := range t.trainings {
		wallMS += float64(tg.wall.Nanoseconds()) / 1e6
		firstMS += tg.res.MS
		firstSteps += float64(tg.res.Steps)
	}
	m["rl.trainings"] = float64(len(t.trainings))
	m["rl.first_reliable_s"] = firstMS / 1000
	m["rl.first_reliable_steps"] = firstSteps
	m["rl.eval_ms_sum"] = wallMS - m["rl.epoch_ms_sum"]
	m["rl.epoch_share"] = ratio(m["rl.epoch_ms_sum"], wallMS)
	notes["rl.first_reliable_s"] = fmt.Sprintf("(n=%d)", len(t.trainings))
}

func (t *trainInstance) close() error { return nil }
