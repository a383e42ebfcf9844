package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"autocat/internal/cache"
	"autocat/internal/campaign"
	"autocat/internal/env"
	"autocat/internal/serve"
)

// serveCombo is one cache geometry and replacement policy a service
// campaign screens.
type serveCombo struct {
	cache  cache.Config
	policy cache.PolicyKind
}

// serveWorkload is a closed loop of tenants, one connection each,
// against an in-process campaign service. Every campaign screens one
// geometry and policy with the search explorer at two attacker ranges ×
// two seeds; every ppoEvery-th campaign adds a tiny PPO job.
//
// Half of the submitted jobs are duplicates by construction (from the
// (len(combos)+1)-th campaign on): the tenants screen the same geometry
// and policy at the same index and share its first seed, and tenant 0's
// second seed repeats the first seed the same combo had len(combos)
// campaigns earlier. The first kind meets in the singleflight layer or
// the result memo, the second only in the memo.
type serveWorkload struct {
	combos    []serveCombo
	attackers []campaign.AddrRange
	ppoEvery  int
}

const (
	serveTenants = 2
	// serveWorkers is each campaign's worker-pool size.
	serveWorkers = 2
	// serveCatalogCapacity bounds the shared catalog. The catalog splits
	// it over 64 shards, and its shard hash is seeded per process: a
	// capacity near the number of attacks found evicts a different number
	// of entries on every run, so it sits well above that number.
	serveCatalogCapacity = 1024
	// servePerSecond is how many campaigns per tenant per second of run
	// time set-up generates, well above the rate the service reaches.
	servePerSecond = 200
)

func defaultServeWorkload() serveWorkload {
	var combos []serveCombo
	for _, c := range []cache.Config{{NumBlocks: 4, NumWays: 1}, {NumBlocks: 4, NumWays: 4}, {NumBlocks: 8, NumWays: 2}} {
		for _, p := range []cache.PolicyKind{cache.LRU, cache.PLRU, cache.RRIP} {
			combos = append(combos, serveCombo{cache: c, policy: p})
		}
	}
	return serveWorkload{
		combos:    combos,
		attackers: []campaign.AddrRange{{Lo: 4, Hi: 7}, {Lo: 0, Hi: 3}},
		ppoEvery:  4,
	}
}

// spec is tenant t's i-th campaign for the given seed.
func (w serveWorkload) spec(seed int64, perm []int, t, i int) campaign.Spec {
	p := len(w.combos)
	combo := w.combos[perm[i%p]]
	// shared(j) is the first seed of every tenant's j-th campaign; odd
	// values are tenant 1's own seeds, so the two never meet.
	base := seed*1_000_000 + 1000
	shared := func(j int) int64 { return base + 2*int64(j) }
	own := base + 2*int64(i) + 1
	if t == 0 {
		own = shared(i - p)
	}
	spec := campaign.Spec{
		Name:           fmt.Sprintf("tenant%d-%d", t, i),
		Caches:         []cache.Config{combo.cache},
		Policies:       []cache.PolicyKind{combo.policy},
		Attackers:      w.attackers,
		Victims:        []campaign.AddrRange{{Lo: 0, Hi: 0}},
		Explorers:      []string{campaign.ExplorerSearch},
		Seeds:          []int64{shared(i), own},
		FlushEnable:    true,
		VictimNoAccess: true,
		Warmup:         -1,
	}
	if i%w.ppoEvery == 0 {
		spec.Scenarios = []campaign.Scenario{oneBitPPO(shared(i))}
	}
	return spec
}

// oneBitPPO is a tiny PPO job on the one-line cache: 10 epochs of 256
// steps.
func oneBitPPO(seed int64) campaign.Scenario {
	return campaign.Scenario{
		Name: fmt.Sprintf("onebit/ppo/s%d", seed),
		Env: env.Config{
			Cache:      cache.Config{NumBlocks: 1, NumWays: 1},
			AttackerLo: 1, AttackerHi: 1, VictimLo: 0, VictimHi: 0,
			VictimNoAccess: true, WindowSize: 6, Warmup: -1, Seed: seed,
		},
		Epochs:        10,
		StepsPerEpoch: 256,
	}
}

// specs generates n campaign bodies per tenant.
func (w serveWorkload) specs(seed int64, n int) ([][][]byte, error) {
	perm := rand.New(rand.NewSource(seed)).Perm(len(w.combos))
	out := make([][][]byte, serveTenants)
	for t := range out {
		out[t] = make([][]byte, n)
		for i := range out[t] {
			blob, err := json.Marshal(w.spec(seed, perm, t, i))
			if err != nil {
				return nil, err
			}
			out[t][i] = blob
		}
	}
	return out, nil
}

// campaignRecord is what a tenant saw of one campaign.
type campaignRecord struct {
	tenant, index int
	status        int
	lines         int
	jobs          []campaign.JobResult
	done          *serve.Event
	post          time.Time
	first, end    time.Time // first job line; end of stream
	err           error
}

// ok reports whether the campaign completed cleanly: a 200, one job line
// per job, and a done line with no error or failed job.
func (c *campaignRecord) ok() bool {
	return c.err == nil && c.status == http.StatusOK && c.done != nil && c.done.Error == "" &&
		c.done.Failed == 0 && c.done.Completed == c.done.Total && len(c.jobs) == c.done.Total
}

// postCampaign submits one campaign and reads its NDJSON stream to the
// end, adding one to jobs, when non-nil, per job line as it arrives.
func postCampaign(ctx context.Context, client *http.Client, url string, body []byte, jobs *atomic.Int64) campaignRecord {
	rec := campaignRecord{post: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	resp, err := client.Do(req)
	if err != nil {
		rec.err = err
		return rec
	}
	defer resp.Body.Close()
	rec.status = resp.StatusCode
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			rec.lines++
			var ev serve.Event
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				rec.err = fmt.Errorf("stream line %d: %w", rec.lines, jerr)
				return rec
			}
			switch ev.Event {
			case "job":
				if rec.first.IsZero() {
					rec.first = time.Now()
				}
				if ev.Result != nil {
					rec.jobs = append(rec.jobs, *ev.Result)
					if jobs != nil {
						jobs.Add(1)
					}
				}
			case "done":
				rec.done = &ev
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			rec.err = err
			break
		}
	}
	rec.end = time.Now()
	return rec
}

// newTenantClient is one tenant: a client with a single connection.
func newTenantClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

type serveInstance struct {
	bodies   [][][]byte
	srv      *serve.Server
	hs       *httptest.Server
	clients  []*http.Client
	lap      int
	tr       atomic.Pointer[tracer]
	executed atomic.Int64
	records  []campaignRecord
}

// setup generates inputs for a run of d (at least one campaign per
// tenant), starts the service behind a loopback listener and opens the
// tenants' clients.
func (w serveWorkload) setup(seed int64, d time.Duration, _ string) (instance, error) {
	return w.start(seed, d)
}

func (w serveWorkload) start(seed int64, d time.Duration) (*serveInstance, error) {
	n := max(1, int(d.Seconds()*servePerSecond))
	bodies, err := w.specs(seed, n)
	if err != nil {
		return nil, err
	}
	s := &serveInstance{bodies: bodies, lap: w.lap()}
	base := campaign.NewExplorerRunner(campaign.RunnerOptions{})
	s.srv = serve.New(serve.Config{
		Workers: serveWorkers,
		Catalog: campaign.CatalogOptions{Capacity: serveCatalogCapacity},
		// The runner sits behind the singleflight layer, so counting its
		// calls checks the dedup: every distinct job runs exactly once.
		Runner: func(ctx context.Context, job campaign.Job) campaign.JobResult {
			s.executed.Add(1)
			tr := s.tr.Load()
			t0 := time.Now()
			jr := base(ctx, job)
			tr.add("campaign.job", job.ID, -1, t0, time.Now())
			return jr
		},
	})
	s.hs = httptest.NewServer(s.srv.Handler())
	for range serveTenants {
		s.clients = append(s.clients, newTenantClient())
	}
	return s, nil
}

// serveSample is the job lines received and the process CPU time used
// when tenant 0 starts a lap.
type serveSample struct {
	at   time.Time
	cpu  time.Duration
	jobs int64
}

// lap is how many campaigns a tenant posts before its mix of geometries,
// policies and PPO jobs repeats.
func (w serveWorkload) lap() int {
	a, b := len(w.combos), w.ppoEvery
	for b != 0 {
		a, b = b, a%b
	}
	return len(w.combos) * w.ppoEvery / a
}

// measure runs the closed loop: each tenant posts its next campaign as
// soon as the previous stream ends, until the deadline or its inputs
// run out. The rate (submitted jobs, duplicates included, per second)
// and the CPU time per job are medians over tenant 0's laps after the
// first, in which the memo is still empty. Every lap runs the same
// geometries, policies and PPO jobs, so laps differ only in their search
// seeds, and the median leaves out laps the host slowed. A run too short
// for two such laps is taken whole.
func (s *serveInstance) measure(ctx context.Context, d time.Duration, tr *tracer) (measurement, error) {
	s.tr.Store(tr)
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var jobLines atomic.Int64
	var laps []serveSample // written by tenant 0 only
	cpu0, t0 := cpuTime(), time.Now()
	for t := range serveTenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, body := range s.bodies[t] {
				if i > 0 && !time.Now().Before(deadline) {
					return
				}
				if t == 0 && i%s.lap == 0 {
					laps = append(laps, serveSample{at: time.Now(), cpu: cpuTime(), jobs: jobLines.Load()})
				}
				rec := postCampaign(ctx, s.clients[t], s.hs.URL, body, &jobLines)
				rec.tenant, rec.index = t, i
				if tr != nil {
					id := fmt.Sprintf("tenant%d/%d", t, i)
					seq := tr.add("serve.post", id, -1, rec.post, rec.end)
					if !rec.first.IsZero() {
						tr.add("serve.first_result", id, seq, rec.post, rec.first)
					}
				}
				mu.Lock()
				s.records = append(s.records, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	jobs := 0
	for _, rec := range s.records {
		jobs += len(rec.jobs)
	}
	var rates, cpus []float64
	for k := 2; k < len(laps); k++ {
		a, b := laps[k-1], laps[k]
		n := float64(b.jobs - a.jobs)
		rates = append(rates, n/b.at.Sub(a.at).Seconds())
		cpus = append(cpus, ratio(float64((b.cpu-a.cpu).Nanoseconds())/1e6, n))
	}
	if len(rates) < 2 {
		return measurement{ops: float64(jobs), rate: float64(jobs) / wall.Seconds(),
			cpuPerOp: ratio(float64(cpu.Nanoseconds())/1e6, float64(jobs)),
			note:     fmt.Sprintf("(whole run: %d jobs in %d campaigns)", jobs, len(s.records))}, nil
	}
	return measurement{ops: float64(jobs), rate: quantile(rates, 0.5), cpuPerOp: quantile(cpus, 0.5),
		note: fmt.Sprintf("(median of %d laps of %d campaigns, %d jobs in %d campaigns)", len(rates), s.lap, jobs, len(s.records))}, nil
}

// verify checks every stream completed cleanly, that each job ID carries
// the same result wherever it was returned (its duration and its index in
// the campaign aside), and that every distinct job ran exactly once.
func (s *serveInstance) verify(*tracer) (verdict, error) {
	var v verdict
	seen := map[string]string{}
	for _, rec := range s.records {
		v.attempted++
		if !rec.ok() {
			v.fail("tenant %d campaign %d: status %d, err %v, done %+v", rec.tenant, rec.index, rec.status, rec.err, rec.done)
		}
		for _, jr := range rec.jobs {
			jr.DurationMS, jr.Index = 0, 0
			blob, err := json.Marshal(jr)
			if err != nil {
				return v, err
			}
			if prev, ok := seen[jr.JobID]; !ok {
				seen[jr.JobID] = string(blob)
			} else if prev != string(blob) {
				v.fail("job %s returned different results:\n  %s\n  %s", jr.JobID, prev, blob)
			}
		}
	}
	v.attempted++
	if got := s.executed.Load(); got != int64(len(seen)) {
		v.fail("service ran %d jobs for %d distinct job IDs", got, len(seen))
	}
	return v, nil
}

func (s *serveInstance) layer(m map[string]float64, notes map[string]string) {
	var first, whole []float64
	submitted, lines := 0, 0
	for _, rec := range s.records {
		submitted += len(rec.jobs)
		lines += rec.lines
		whole = append(whole, float64(rec.end.Sub(rec.post).Nanoseconds())/1e6)
		if !rec.first.IsZero() {
			first = append(first, float64(rec.first.Sub(rec.post).Nanoseconds())/1e6)
		}
	}
	executed := float64(s.executed.Load())
	m["catalog.attacks_found"] = float64(s.srv.Catalog().Len())
	m["serve.campaigns"] = float64(len(s.records))
	m["serve.jobs_submitted"] = float64(submitted)
	m["serve.jobs_executed"] = executed
	m["serve.dedup_ratio"] = 1 - ratio(executed, float64(submitted))
	m["serve.stream_lines"] = float64(lines)
	m["serve.first_result_ms_p50"] = quantile(first, 0.5)
	m["serve.first_result_ms_p95"] = quantile(first, 0.95)
	m["serve.campaign_ms_p50"] = quantile(whole, 0.5)
	m["serve.campaign_ms_p95"] = quantile(whole, 0.95)
	for _, name := range []string{"serve.first_result_ms_p50", "serve.first_result_ms_p95"} {
		notes[name] = fmt.Sprintf("(n=%d)", len(first))
	}
	for _, name := range []string{"serve.campaign_ms_p50", "serve.campaign_ms_p95"} {
		notes[name] = fmt.Sprintf("(n=%d)", len(whole))
	}
}

func (s *serveInstance) close() error {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.hs.Close()
	return nil
}

// warmUp runs one small campaign, search and PPO jobs both, against a
// throwaway service, so the timed part does not pay for first-use costs.
func warmUp() error {
	w := serveWorkload{
		combos:    []serveCombo{{cache: cache.Config{NumBlocks: 1, NumWays: 1}, policy: cache.LRU}},
		attackers: []campaign.AddrRange{{Lo: 1, Hi: 1}},
		ppoEvery:  1,
	}
	s, err := w.start(0, 0)
	if err != nil {
		return err
	}
	defer s.close()
	rec := postCampaign(context.Background(), s.clients[0], s.hs.URL, s.bodies[0][0], nil)
	if !rec.ok() {
		return fmt.Errorf("warm-up campaign: status %d, err %v, done %+v", rec.status, rec.err, rec.done)
	}
	return nil
}
