package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"autocat/internal/cache"
	"autocat/internal/campaign"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyWorkloads are the benchmark's workloads at a size that runs in
// about a second each.
func tinyWorkloads() map[string]workload {
	grid := campaign.Spec{
		Name:           "tiny",
		Caches:         []cache.Config{{NumBlocks: 2, NumWays: 2}},
		Policies:       []cache.PolicyKind{cache.LRU},
		Attackers:      []campaign.AddrRange{{Lo: 2, Hi: 3}},
		Victims:        []campaign.AddrRange{{Lo: 0, Hi: 0}},
		Defenses:       []string{campaign.DefenseNone, campaign.DefensePartition},
		Explorers:      []string{campaign.ExplorerSearch},
		FlushEnable:    true,
		VictimNoAccess: true,
		Warmup:         -1,
	}
	rng := grid
	rng.Policies = []cache.PolicyKind{cache.Random}
	rng.Defenses = []string{campaign.DefenseSkew}
	serve := defaultServeWorkload()
	serve.combos = serve.combos[:2]
	// Each lane trains pp-onebit once, to its first reliable attack.
	train := trainWorkload{scenarios: trainScenarios()[3:]}
	return map[string]workload{
		"screen":     screenWorkload{grid: grid},
		"screen-rng": screenWorkload{grid: rng},
		"train":      train,
		"serve":      serve,
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the program's metric names
// and units, and its workloads, in step with BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	check := func(kind string, defs []metricDef, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		want := map[string]string{}
		for _, d := range defs {
			want[d.name] = d.unit
		}
		got := map[string]string{}
		for _, m := range listed {
			got[m.Name] = m.Unit
		}
		if len(got) != len(listed) {
			t.Errorf("%s: BENCHMARK.json lists a name twice", kind)
		}
		for name, unit := range want {
			if got[name] != unit {
				t.Errorf("%s %s: program unit %q, BENCHMARK.json %q", kind, name, unit, got[name])
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s %s: in BENCHMARK.json but the program does not print it", kind, name)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), "screen,screen-rng,train,serve"; got != want {
		t.Errorf("BENCHMARK.json workloads %s, want %s", got, want)
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("workload %s has no implementation", n)
		}
	}
}

// TestWorkloadsSmoke runs every workload small, traced, and checks that
// every metric is printed with its unit and that no operation failed.
func TestWorkloadsSmoke(t *testing.T) {
	for name, w := range tinyWorkloads() {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			cfg := config{name: name, seed: 3, d: 300 * time.Millisecond, trace: true, workdir: t.TempDir(), start: time.Now()}
			res, err := runBenchmark(cfg, w, &out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if res.Failed != 0 || !res.Correct {
				t.Fatalf("failed %d of %d:\n%s", res.Failed, res.Attempted, out.String())
			}
			for _, d := range perLayer {
				if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
					t.Errorf("per-layer metric %s: got %+v, want unit %s", d.name, v, d.unit)
				}
			}
			for _, d := range endToEnd {
				if !hasMetricLine(out.String(), d) {
					t.Errorf("end-to-end metric %s not printed with unit %s", d.name, d.unit)
				}
			}
			if res.Metrics["trace.spans"].Value == 0 {
				t.Errorf("traced run recorded no spans")
			}
		})
	}
}

// hasMetricLine reports whether out has a "name value unit" line.
func hasMetricLine(out string, d metricDef) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == d.name && f[2] == d.unit {
			return true
		}
	}
	return false
}

// TestServeSpecs checks the service workload's generator: byte-identical
// bodies for a seed, different bodies for another, and half of the
// submitted jobs duplicates.
func TestServeSpecs(t *testing.T) {
	w := defaultServeWorkload()
	const n = 200
	a, err := w.specs(7, n)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := w.specs(7, n)
	c, _ := w.specs(8, n)
	for tenant := range a {
		for i := range a[tenant] {
			if !bytes.Equal(a[tenant][i], b[tenant][i]) {
				t.Fatalf("tenant %d campaign %d differs between two generations", tenant, i)
			}
			if bytes.Equal(a[tenant][i], c[tenant][i]) {
				t.Fatalf("tenant %d campaign %d is the same for seeds 7 and 8", tenant, i)
			}
		}
	}
	submitted := 0
	distinct := map[string]bool{}
	for _, bodies := range a {
		for _, body := range bodies {
			var spec campaign.Spec
			if err := json.Unmarshal(body, &spec); err != nil {
				t.Fatal(err)
			}
			jobs, _, err := spec.Expand()
			if err != nil {
				t.Fatal(err)
			}
			submitted += len(jobs)
			for _, j := range jobs {
				distinct[j.ID] = true
			}
		}
	}
	share := 1 - float64(len(distinct))/float64(submitted)
	if share < 0.47 || share > 0.5 {
		t.Errorf("duplicate share %.3f (%d distinct of %d submitted), want just under 0.5", share, len(distinct), submitted)
	}
}

// TestServeLap checks that a lap of the service workload is the shortest
// run of campaigns after which both the geometry and policy and the PPO
// jobs repeat.
func TestServeLap(t *testing.T) {
	w := defaultServeWorkload()
	if got, want := w.lap(), 36; got != want {
		t.Errorf("lap %d campaigns, want %d", got, want)
	}
	w.combos = w.combos[:2]
	if got, want := w.lap(), 4; got != want {
		t.Errorf("lap of 2 combinations %d campaigns, want %d", got, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.2, 1}, {0.95, 5}, {1, 5}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := tr.add("parent", "p", -1, at(0), at(100))
	tr.add("child", "a", parent, at(10), at(40))
	tr.add("child", "b", parent, at(30), at(60))  // overlaps a
	tr.add("child", "c", parent, at(90), at(120)) // runs past the parent
	spans := tr.finish()
	if got, want := spans[parent].Self, (100-50-10)*int64(time.Millisecond); got != want {
		t.Errorf("parent self time %v, want %v", time.Duration(got), time.Duration(want))
	}
}
