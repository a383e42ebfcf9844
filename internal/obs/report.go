package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// RunReport is the digest `autocat stats` prints from a run's journal:
// throughput over time, training effort per job, time-to-first-reliable
// -attack per scenario, and catalog dedup rate.
type RunReport struct {
	Events    int
	Start     time.Time
	End       time.Time
	Campaigns int
	Stages    int
	Escalated int

	Jobs    int
	Failed  int
	Attacks int
	Novel   int

	// Fault-tolerance digest: Attempts counts every runner invocation
	// (completed jobs plus their retried attempts), Retries the re-runs
	// after transient failures, Panics the recovered worker panics,
	// ArtifactDrops the artifact-store writes that failed without
	// erasing the job result, and CheckpointRetries the checkpoint
	// appends retried after transient write failures.
	Attempts          int
	Retries           int
	Panics            int
	ArtifactDrops     int
	CheckpointRetries int

	PPOJobs   int
	PPOEpochs int

	Rate          []RateBucket
	FirstReliable []FirstReliable
}

// RateBucket is one time slice of job-completion throughput.
type RateBucket struct {
	Start  time.Time
	End    time.Time
	Jobs   int
	PerSec float64
}

// FirstReliable records when a scenario first produced a reliable
// attack, measured from the start of the run (stage 1 for staged runs —
// the journal spans all stages, so escalation cost is included).
type FirstReliable struct {
	Scenario string
	Job      string
	Elapsed  time.Duration
	// Steps counts the environment transitions PPO collected for the
	// winning job before the attack became reliable (summed from the
	// job's ppo.epoch events). Zero for jobs solved without training.
	Steps int
	// UselessRate is the useless-classified fraction of every PPO step
	// recorded for this scenario across the whole run (all stages, all
	// jobs that normalize to this name), weighted by per-epoch step
	// counts. Valid only when RateKnown is set — search-only scenarios
	// journal no per-step classification.
	UselessRate float64
	RateKnown   bool
}

// BuildRunReport digests journal events into a RunReport. normalize, if
// non-nil, canonicalises scenario names before aggregation (the staged
// runner suffixes names with the explorer kind; the stats CLI strips
// those so one scenario escalated across stages counts once).
func BuildRunReport(events []Event, normalize func(string) string) *RunReport {
	r := &RunReport{Events: len(events)}
	if len(events) == 0 {
		return r
	}
	if normalize == nil {
		normalize = func(s string) string { return s }
	}

	startUS, endUS := events[0].TS, events[0].TS
	for _, ev := range events {
		if ev.TS < startUS {
			startUS = ev.TS
		}
		if ev.TS > endUS {
			endUS = ev.TS
		}
	}
	// Anchor elapsed times at the first campaign.start when present —
	// earlier events (a resumed journal's prior run) keep absolute TS
	// but a fresh run's zero point is the campaign launch.
	for _, ev := range events {
		if ev.Kind == EvCampaignStart {
			startUS = ev.TS
			break
		}
	}
	r.Start = time.UnixMicro(startUS)
	r.End = time.UnixMicro(endUS)

	type doneJob struct {
		ts int64
	}
	var done []doneJob
	firstSeen := make(map[string]FirstReliable)
	ppoJobs := make(map[string]bool)
	jobSteps := make(map[string]float64)    // cumulative env steps per job
	scenSteps := make(map[string]float64)   // cumulative env steps per normalized scenario
	scenUseless := make(map[string]float64) // cumulative useless-classified steps, same key
	for _, ev := range events {
		switch ev.Kind {
		case EvCampaignStart:
			r.Campaigns++
		case EvStageStart:
			r.Stages++
		case EvEscalate:
			r.Escalated++
		case EvJobDone:
			r.Jobs++
			done = append(done, doneJob{ts: ev.TS})
			if dataStr(ev.Data, "error") != "" {
				r.Failed++
			}
			if dataBool(ev.Data, "attack") {
				r.Attacks++
			}
			if dataBool(ev.Data, "novel") {
				r.Novel++
			}
			// "attempts" is journaled only when a job needed more than
			// one; a missing field means the single attempt succeeded.
			if a := int(dataNum(ev.Data, "attempts")); a > 1 {
				r.Attempts += a
			} else {
				r.Attempts++
			}
		case EvJobRetry:
			r.Retries++
		case EvJobPanic:
			r.Panics++
		case EvArtifactDrop:
			r.ArtifactDrops++
		case EvCheckpointRetry:
			r.CheckpointRetries++
		case EvPPOEpoch:
			r.PPOEpochs++
			if ev.Job != "" {
				ppoJobs[ev.Job] = true
			}
			// EpochStats marshals under its Go field names (no json tags).
			steps := dataNum(ev.Data, "Steps")
			jobSteps[ev.Job] += steps
			name := normalize(ev.Name)
			scenSteps[name] += steps
			scenUseless[name] += dataNum(ev.Data, "UselessRate") * steps
		case EvFirstReliable:
			name := normalize(ev.Name)
			el := time.Duration(ev.TS-startUS) * time.Microsecond
			if prev, ok := firstSeen[name]; !ok || el < prev.Elapsed {
				// Events are journaled in time order, so jobSteps holds
				// exactly the steps the job trained before this moment.
				firstSeen[name] = FirstReliable{Scenario: name, Job: ev.Job,
					Elapsed: el, Steps: int(jobSteps[ev.Job])}
			}
		}
	}
	r.PPOJobs = len(ppoJobs)

	for name, fr := range firstSeen {
		if s := scenSteps[name]; s > 0 {
			fr.UselessRate = scenUseless[name] / s
			fr.RateKnown = true
		}
		r.FirstReliable = append(r.FirstReliable, fr)
	}
	sort.Slice(r.FirstReliable, func(i, j int) bool {
		if r.FirstReliable[i].Elapsed != r.FirstReliable[j].Elapsed {
			return r.FirstReliable[i].Elapsed < r.FirstReliable[j].Elapsed
		}
		return r.FirstReliable[i].Scenario < r.FirstReliable[j].Scenario
	})

	// Throughput over time: uniform bins across the run, enough that a
	// staged run's slow PPO tail is visible next to the fast search
	// stage, few enough to read in a terminal.
	if len(done) > 0 && endUS > startUS {
		bins := 10
		if r.Jobs < bins {
			bins = r.Jobs
		}
		if bins < 1 {
			bins = 1
		}
		span := endUS - startUS
		counts := make([]int, bins)
		for _, d := range done {
			i := int((d.ts - startUS) * int64(bins) / (span + 1))
			if i < 0 {
				i = 0
			}
			if i >= bins {
				i = bins - 1
			}
			counts[i]++
		}
		for i, n := range counts {
			bs := time.UnixMicro(startUS + span*int64(i)/int64(bins))
			be := time.UnixMicro(startUS + span*int64(i+1)/int64(bins))
			sec := be.Sub(bs).Seconds()
			rb := RateBucket{Start: bs, End: be, Jobs: n}
			if sec > 0 {
				rb.PerSec = float64(n) / sec
			}
			r.Rate = append(r.Rate, rb)
		}
	}
	return r
}

// Format writes the human-readable report.
func (r *RunReport) Format(w io.Writer) {
	fmt.Fprintf(w, "run: %s → %s (%s, %d events)\n",
		r.Start.Format(time.RFC3339), r.End.Format(time.RFC3339),
		fmtDur(r.End.Sub(r.Start)), r.Events)
	fmt.Fprintf(w, "campaigns: %d", r.Campaigns)
	if r.Stages > 0 {
		fmt.Fprintf(w, "  stages: %d  escalated: %d", r.Stages, r.Escalated)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "jobs: %d done, %d failed, %d reliable attacks\n", r.Jobs, r.Failed, r.Attacks)
	fmt.Fprintf(w, "attempts: %d, retries: %d, panics: %d\n", r.Attempts, r.Retries, r.Panics)
	if r.ArtifactDrops > 0 {
		fmt.Fprintf(w, "artifact store: %d dropped writes (results kept, artifacts lost)\n", r.ArtifactDrops)
	}
	if r.CheckpointRetries > 0 {
		fmt.Fprintf(w, "checkpoint retries: %d (appends retried after transient write failures)\n", r.CheckpointRetries)
	}
	if r.Attacks > 0 {
		redisc := r.Attacks - r.Novel
		fmt.Fprintf(w, "catalog: %d novel, %d rediscovered (dedup rate %.1f%%)\n",
			r.Novel, redisc, 100*float64(redisc)/float64(r.Attacks))
	}
	if r.PPOEpochs > 0 {
		fmt.Fprintf(w, "ppo: %d epochs across %d jobs (%.1f epochs/job)\n",
			r.PPOEpochs, r.PPOJobs, float64(r.PPOEpochs)/float64(max(r.PPOJobs, 1)))
	}
	if len(r.Rate) > 0 {
		fmt.Fprintf(w, "\nthroughput (jobs/s over time):\n")
		maxJobs := 0
		for _, rb := range r.Rate {
			if rb.Jobs > maxJobs {
				maxJobs = rb.Jobs
			}
		}
		for _, rb := range r.Rate {
			bar := ""
			if maxJobs > 0 {
				bar = barString(rb.Jobs, maxJobs, 30)
			}
			fmt.Fprintf(w, "  %s  %-30s %3d jobs  %6.2f/s\n",
				rb.Start.Format("15:04:05"), bar, rb.Jobs, rb.PerSec)
		}
	}
	if len(r.FirstReliable) > 0 {
		fmt.Fprintf(w, "\ntime to first reliable attack:\n")
		fmt.Fprintf(w, "  %-44s %10s %12s %9s\n", "scenario", "elapsed", "steps", "useless")
		for _, fr := range r.FirstReliable {
			steps, useless := "-", "-"
			if fr.Steps > 0 {
				steps = fmt.Sprintf("%d", fr.Steps)
			}
			if fr.RateKnown {
				useless = fmt.Sprintf("%.1f%%", 100*fr.UselessRate)
			}
			fmt.Fprintf(w, "  %-44s %10s %12s %9s  (job %s)\n",
				fr.Scenario, fmtDur(fr.Elapsed), steps, useless, fr.Job)
		}
	}
}

func barString(n, maxN, width int) string {
	w := n * width / maxN
	if n > 0 && w == 0 {
		w = 1
	}
	b := make([]byte, 0, width*3)
	for i := 0; i < w; i++ {
		b = append(b, "█"...)
	}
	return string(b)
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Second:
		return d.Round(time.Millisecond).String()
	case d < time.Minute:
		return d.Round(10 * time.Millisecond).String()
	default:
		return d.Round(time.Second).String()
	}
}

// dataStr extracts a string field from a decoded event payload.
func dataStr(data any, key string) string {
	m, _ := data.(map[string]any)
	s, _ := m[key].(string)
	return s
}

// dataBool extracts a bool field from a decoded event payload.
func dataBool(data any, key string) bool {
	m, _ := data.(map[string]any)
	b, _ := m[key].(bool)
	return b
}

// dataNum extracts a numeric field from a decoded event payload.
func dataNum(data any, key string) float64 {
	m, _ := data.(map[string]any)
	f, _ := m[key].(float64)
	return f
}
