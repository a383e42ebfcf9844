package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autocat/internal/cache"
	"autocat/internal/campaign"
	"autocat/internal/obs"
)

// testSpec expands to 4 jobs (4 seeds × one scenario) on the tiny 1×1
// cache, matching the repo's fast-campaign convention.
func testSpec(name string) campaign.Spec {
	return campaign.Spec{
		Name:           name,
		Caches:         []cache.Config{{NumBlocks: 1, NumWays: 1}},
		Attackers:      []campaign.AddrRange{{Lo: 1, Hi: 1}},
		Victims:        []campaign.AddrRange{{Lo: 0, Hi: 0}},
		Seeds:          []int64{1, 2, 3, 4},
		VictimNoAccess: true,
		WindowSize:     6,
		Warmup:         -1,
	}
}

// countingRunner returns a stub runner that records how many times each
// job ID actually executed — the ground truth the singleflight
// assertions check — and produces a distinct reliable attack per seed.
func countingRunner(runs *atomic.Int64, delay time.Duration) campaign.Runner {
	return func(ctx context.Context, job campaign.Job) campaign.JobResult {
		runs.Add(1)
		if delay > 0 {
			time.Sleep(delay) // hold the flight open so tenants overlap
		}
		seed := job.Scenario.Env.Seed
		return campaign.JobResult{
			Sequence:  fmt.Sprintf("%d→v→g0", seed),
			Canonical: fmt.Sprintf("A%d V G0", seed),
			Category:  "IV",
			Accuracy:  0.95,
			Converged: true,
		}
	}
}

// postCampaign submits a spec and decodes the NDJSON event stream.
func postCampaign(t *testing.T, url string, spec campaign.Spec) []Event {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/campaigns: %s: %s", resp.Status, b)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// byKind indexes a stream by event kind.
func byKind(evs []Event) map[string][]Event {
	m := map[string][]Event{}
	for _, ev := range evs {
		m[ev.Event] = append(m[ev.Event], ev)
	}
	return m
}

// TestServiceSingleflightAcrossTenants is the issue's acceptance E2E:
// two tenants posting identical specs concurrently cause every job to
// execute exactly once — the overlap is absorbed by the in-flight
// singleflight or the completed-result memo, never by a second explorer
// run — while both tenants still stream a full set of job results.
func TestServiceSingleflightAcrossTenants(t *testing.T) {
	var runs atomic.Int64
	srv := New(Config{Runner: countingRunner(&runs, 30*time.Millisecond), Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sfBefore := obs.ServeSingleflightHits.Load() + obs.ServeResultCacheHits.Load()
	var wg sync.WaitGroup
	streams := make([][]Event, 2)
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streams[i] = postCampaign(t, ts.URL, testSpec(fmt.Sprintf("tenant%d", i)))
		}(i)
	}
	wg.Wait()

	novel := 0
	for i, evs := range streams {
		kinds := byKind(evs)
		if len(kinds["start"]) != 1 || kinds["start"][0].Total != 4 {
			t.Fatalf("tenant %d: start events = %+v", i, kinds["start"])
		}
		if len(kinds["job"]) != 4 {
			t.Fatalf("tenant %d: %d job events, want 4", i, len(kinds["job"]))
		}
		for _, ev := range kinds["job"] {
			if ev.Result == nil || ev.Result.Error != "" || ev.Result.Canonical == "" {
				t.Fatalf("tenant %d: bad job event %+v", i, ev)
			}
		}
		d := kinds["done"]
		if len(d) != 1 || d[0].Completed != 4 || d[0].Failed != 0 || d[0].Error != "" {
			t.Fatalf("tenant %d: done events = %+v", i, d)
		}
		novel += len(kinds["novel_attack"])
	}

	// Every one of the 8 submitted jobs completed, but only the 4 unique
	// ones ever ran; the other 4 were shared.
	if got := runs.Load(); got != 4 {
		t.Fatalf("runner executed %d times, want 4 (one per unique job)", got)
	}
	if shared := obs.ServeSingleflightHits.Load() + obs.ServeResultCacheHits.Load() - sfBefore; shared != 4 {
		t.Fatalf("shared results = %d, want 4", shared)
	}
	// The shared catalog saw each attack once: 4 novel events total
	// across both tenants, and 4 distinct entries.
	if novel != 4 {
		t.Fatalf("novel_attack events across tenants = %d, want 4", novel)
	}
	if n := srv.Catalog().Len(); n != 4 {
		t.Fatalf("catalog len = %d, want 4", n)
	}
}

// TestServiceRejectsBadSpec: malformed JSON and unexpandable specs cost
// a 400, not a campaign slot.
func TestServiceRejectsBadSpec(t *testing.T) {
	srv := New(Config{Runner: countingRunner(new(atomic.Int64), 0)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{not json`,
		`{"no_such_field": 1}`,
		`{"name":"empty"}`, // expands to zero jobs
	} {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %s, want 400", body, resp.Status)
		}
	}
}

// TestServiceCampaignCap: past MaxCampaigns the service sheds load with
// 503 instead of queueing, and frees the slot when a campaign ends.
func TestServiceCampaignCap(t *testing.T) {
	release := make(chan struct{})
	var runs atomic.Int64
	blocking := func(ctx context.Context, job campaign.Job) campaign.JobResult {
		runs.Add(1)
		<-release
		return campaign.JobResult{Accuracy: 0.1}
	}
	srv := New(Config{Runner: blocking, MaxCampaigns: 1, Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan []Event)
	go func() { done <- postCampaign(t, ts.URL, testSpec("holder")) }()

	// Wait until the first campaign holds the slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st struct {
			Active int `json:"active_campaigns"`
		}
		getJSON(t, ts.URL+"/v1/status", &st)
		if st.Active == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first campaign never became active")
		}
		time.Sleep(5 * time.Millisecond)
	}

	body, _ := json.Marshal(testSpec("rejected"))
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap submission: status %s, want 503", resp.Status)
	}

	close(release)
	evs := <-done
	if d := byKind(evs)["done"]; len(d) != 1 || d[0].Completed != 4 {
		t.Fatalf("holder campaign done = %+v", d)
	}

	// Slot freed: a new submission is admitted again.
	if evs := postCampaign(t, ts.URL, testSpec("after")); len(byKind(evs)["done"]) != 1 {
		t.Fatal("post-release submission did not run")
	}
}

// TestServiceSSEFraming: an Accept: text/event-stream tenant gets SSE
// records instead of NDJSON.
func TestServiceSSEFraming(t *testing.T) {
	srv := New(Config{Runner: countingRunner(new(atomic.Int64), 0)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(testSpec("sse"))
	req, _ := http.NewRequest("POST", ts.URL+"/v1/campaigns", bytes.NewReader(body))
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"event: start\n", "event: job\n", "event: done\n", "data: {"} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("SSE stream missing %q:\n%s", want, raw)
		}
	}
}

// TestServiceCatalogStatusMetrics exercises the read-side endpoints
// after one campaign: catalog snapshot, status numbers, and the metric
// names the CI smoke job asserts on.
func TestServiceCatalogStatusMetrics(t *testing.T) {
	srv := New(Config{Runner: countingRunner(new(atomic.Int64), 0)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postCampaign(t, ts.URL, testSpec("one"))

	var cat struct {
		Len     int              `json:"len"`
		Entries []campaign.Entry `json:"entries"`
	}
	getJSON(t, ts.URL+"/v1/catalog?limit=2", &cat)
	if cat.Len != 4 || len(cat.Entries) != 2 {
		t.Fatalf("catalog = len %d / %d entries, want 4 / 2 (limited)", cat.Len, len(cat.Entries))
	}

	var st struct {
		Active  int `json:"active_campaigns"`
		Max     int `json:"max_campaigns"`
		Catalog int `json:"catalog_len"`
	}
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.Active != 0 || st.Max != 4 || st.Catalog != 4 {
		t.Fatalf("status = %+v", st)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"catalog.evictions_total", "serve.singleflight_hits_total", "serve.campaigns_total",
		"search.candidates_total", "search.steps_total", "search.simulated_total", "search.legacy_scans_total"} {
		if !strings.Contains(string(raw), name) {
			t.Fatalf("/metrics missing %q", name)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %s", resp.Status)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestServiceStreamContract pins the stream every client parses, in
// both framings: "start" first, "done" last, the field names readers
// use, and omitted empty fields (so a top-level "error" key appears only
// when the campaign failed).
func TestServiceStreamContract(t *testing.T) {
	var runs atomic.Int64
	ok := countingRunner(&runs, 0)
	runner := func(ctx context.Context, job campaign.Job) campaign.JobResult {
		if job.Scenario.Env.Seed == 4 {
			return campaign.JobResult{Error: "bad scenario"}
		}
		return ok(ctx, job)
	}
	wantKeys := map[string][]string{
		"start":        {"event", "campaign", "total"},
		"job":          {"event", "done", "total", "result", "catalog"},
		"novel_attack": {"event", "key", "sequence", "category", "catalog"},
		"done":         {"event", "done", "total", "completed", "failed", "catalog"},
	}
	for _, sse := range []bool{false, true} {
		srv := New(Config{Runner: runner, Workers: 1})
		ts := httptest.NewServer(srv.Handler())
		lines := streamRaw(t, ts.URL, testSpec("contract"), sse)
		ts.Close()

		var kinds []string
		novelJobs := 0
		for _, raw := range lines {
			var m map[string]any
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatalf("sse=%v: bad line %q: %v", sse, raw, err)
			}
			kind, _ := m["event"].(string)
			kinds = append(kinds, kind)
			want, known := wantKeys[kind]
			if !known {
				t.Fatalf("sse=%v: unknown event kind in %s", sse, raw)
			}
			for _, k := range want {
				if _, has := m[k]; !has {
					t.Errorf("sse=%v: %s event lacks %q: %s", sse, kind, k, raw)
				}
			}
			if _, has := m["result"]; has != (kind == "job") {
				t.Errorf("sse=%v: %s event with result=%v: %s", sse, kind, has, raw)
			}
			if _, has := m["error"]; has {
				t.Errorf("sse=%v: clean campaign carries a top-level error: %s", sse, raw)
			}
			if m["novel"] == true {
				novelJobs++
			}
		}
		if len(kinds) == 0 || kinds[0] != "start" || kinds[len(kinds)-1] != "done" {
			t.Fatalf("sse=%v: stream must run start..done, got %v", sse, kinds)
		}
		var ev Event
		if err := json.Unmarshal(lines[len(lines)-1], &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Total != 4 || ev.Completed != 4 || ev.Failed != 1 || ev.CatalogSize != 3 {
			t.Errorf("sse=%v: done = %+v, want 4 completed, 1 failed, catalog 3", sse, ev)
		}
		if n := strings.Count(strings.Join(kinds, " "), "novel_attack"); n != 3 || novelJobs != 3 {
			t.Errorf("sse=%v: %d novel_attack events and %d novel jobs, want 3 each", sse, n, novelJobs)
		}
	}

	// A failed campaign's done event names its error under "error".
	raw, err := json.Marshal(Event{Event: "done", Error: "context canceled"})
	if err != nil || !strings.Contains(string(raw), `"error":"context canceled"`) {
		t.Fatalf("done with error encodes as %s (%v)", raw, err)
	}
}

// streamRaw submits a spec and returns the JSON payload of every stream
// record. Under SSE it also checks each record's "event:" line names
// the payload's kind.
func streamRaw(t *testing.T, url string, spec campaign.Spec, sse bool) [][]byte {
	t.Helper()
	body, _ := json.Marshal(spec)
	req, _ := http.NewRequest("POST", url+"/v1/campaigns", bytes.NewReader(body))
	if sse {
		req.Header.Set("Accept", "text/event-stream")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	all, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !sse {
		return bytes.Split(bytes.TrimSuffix(all, []byte("\n")), []byte("\n"))
	}
	var out [][]byte
	for _, rec := range strings.Split(strings.TrimSuffix(string(all), "\n\n"), "\n\n") {
		name, data, ok := strings.Cut(rec, "\ndata: ")
		if !ok || !strings.HasPrefix(name, "event: ") {
			t.Fatalf("malformed SSE record %q", rec)
		}
		if !strings.Contains(data, `"event":"`+strings.TrimPrefix(name, "event: ")+`"`) {
			t.Fatalf("SSE record %q: event line does not match its payload", rec)
		}
		out = append(out, []byte(data))
	}
	return out
}
