// Package serve exposes campaign execution as a long-running HTTP
// service: tenants POST campaign specs and receive a live stream of job
// results and novel-attack events while the campaign runs. All
// campaigns share one process — fair-share CPU scheduling falls out of
// the compute-token pool every job already acquires, identical jobs
// submitted by different tenants collapse into one execution
// (flightGroup), and every discovered attack dedups into one shared,
// bounded-memory catalog, so the process can serve campaigns for weeks
// without its attack store growing without bound.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"autocat/internal/campaign"
	"autocat/internal/obs"
)

// Config parameterizes the campaign service. The zero value serves
// unbounded catalogs with the production explorer runner.
type Config struct {
	// MaxCampaigns caps concurrently running campaigns; submissions past
	// the cap are rejected with 503 rather than queued (clients retry;
	// queueing would hide a saturated service behind growing latency).
	// 0 means 4.
	MaxCampaigns int
	// Workers is each campaign's worker-pool size; 0 lets campaign.Run
	// default to NumCPU. Actual CPU concurrency across every campaign is
	// governed by the process-wide compute-token pool regardless.
	Workers int
	// Scale multiplies scenario epoch budgets of the default runner, as
	// in campaign.RunnerOptions; ignored when Runner is set.
	Scale float64
	// Catalog bounds the shared attack catalog every campaign records
	// into. The zero value is unbounded — long-running deployments set
	// Capacity (and optionally TTL) to fix the memory ceiling.
	Catalog campaign.CatalogOptions
	// ResultCache bounds the completed-job memo used for cross-tenant
	// dedup; 0 means 4096 results.
	ResultCache int
	// JobTimeout and Retry pass through to campaign.RunConfig.
	JobTimeout time.Duration
	Retry      campaign.RetryPolicy
	// Runner overrides job execution (tests); nil selects the explorer
	// runner at Scale. The server wraps whichever runner with the
	// singleflight layer.
	Runner campaign.Runner
}

// Server is the campaign service. Create with New, mount Handler on an
// http.Server.
type Server struct {
	cfg     Config
	catalog *campaign.Catalog
	flights *flightGroup
	runner  campaign.Runner
	mux     *http.ServeMux

	mu     sync.Mutex
	active int
}

// New builds a Server with its shared catalog and dedup layer.
func New(cfg Config) *Server {
	if cfg.MaxCampaigns <= 0 {
		cfg.MaxCampaigns = 4
	}
	s := &Server{
		cfg:     cfg,
		catalog: campaign.NewCatalogWith(cfg.Catalog),
		flights: newFlightGroup(cfg.ResultCache),
	}
	base := cfg.Runner
	if base == nil {
		base = campaign.NewExplorerRunner(campaign.RunnerOptions{Scale: cfg.Scale})
	}
	s.runner = func(ctx context.Context, job campaign.Job) campaign.JobResult {
		jr, _ := s.flights.Do(ctx, job.ID, func() campaign.JobResult { return base(ctx, job) })
		return jr
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleCampaigns)
	mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(obs.TakeSnapshot())
	})
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Catalog returns the shared attack catalog (read-side: snapshots).
func (s *Server) Catalog() *campaign.Catalog { return s.catalog }

// Event is one line of a campaign's result stream (NDJSON by default,
// SSE framing when the client asks for text/event-stream):
//
//   - "start"        — campaign admitted; Total is the job count.
//   - "job"          — one job finished; Result carries the full
//     JobResult, Novel whether its attack was new to the shared
//     catalog, Catalog the catalog's live size.
//   - "novel_attack" — emitted alongside the "job" event whenever the
//     attack was novel, carrying just the attack identity, so clients
//     watching for discoveries need not parse job results.
//   - "done"         — terminal summary; Error is the campaign error
//     (cancellation included), empty on success.
type Event struct {
	Event     string              `json:"event"`
	Campaign  string              `json:"campaign,omitempty"`
	Done      int                 `json:"done,omitempty"`
	Total     int                 `json:"total,omitempty"`
	Result    *campaign.JobResult `json:"result,omitempty"`
	Novel     bool                `json:"novel,omitempty"`
	Catalog   int                 `json:"catalog,omitempty"`
	Key       string              `json:"key,omitempty"`
	Sequence  string              `json:"sequence,omitempty"`
	Category  string              `json:"category,omitempty"`
	Completed int                 `json:"completed,omitempty"`
	Failed    int                 `json:"failed,omitempty"`
	ElapsedMS int64               `json:"elapsed_ms,omitempty"`
	Error     string              `json:"error,omitempty"`
}

// eventWriter frames Events for one response — NDJSON lines or SSE
// "event:/data:" records — flushing after each so tenants see progress
// live, not at buffer boundaries.
type eventWriter struct {
	w   http.ResponseWriter
	fl  http.Flusher
	sse bool
	enc *json.Encoder
}

func newEventWriter(w http.ResponseWriter, sse bool) *eventWriter {
	ew := &eventWriter{w: w, sse: sse, enc: json.NewEncoder(w)}
	ew.fl, _ = w.(http.Flusher)
	return ew
}

func (ew *eventWriter) write(ev Event) {
	if ew.sse {
		fmt.Fprintf(ew.w, "event: %s\ndata: ", ev.Event)
		ew.enc.Encode(ev) // Encode appends the newline
		fmt.Fprint(ew.w, "\n")
	} else {
		ew.enc.Encode(ev)
	}
	if ew.fl != nil {
		ew.fl.Flush()
	}
}

// handleCampaigns admits and runs one campaign, streaming its events
// until completion. The campaign is bound to the request context, so a
// disconnecting tenant cancels their campaign and frees its slot.
func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	var spec campaign.Spec
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decode spec: %v", err))
		return
	}
	// Validate before admitting: a malformed spec must cost a 400, not a
	// campaign slot and a streamed mid-flight error.
	jobs, _, err := spec.Expand()
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("expand spec: %v", err))
		return
	}
	if len(jobs) == 0 {
		httpError(w, http.StatusBadRequest, "spec expands to zero jobs")
		return
	}

	s.mu.Lock()
	if s.active >= s.cfg.MaxCampaigns {
		s.mu.Unlock()
		obs.ServeCampaignsRejected.Inc()
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("campaign limit reached (%d running)", s.cfg.MaxCampaigns))
		return
	}
	s.active++
	s.mu.Unlock()
	obs.ServeCampaigns.Inc()
	obs.ServeCampaignsActive.Add(1)
	defer func() {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
		obs.ServeCampaignsActive.Add(-1)
	}()

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	ew := newEventWriter(w, sse)
	ew.write(Event{Event: "start", Campaign: spec.Name, Total: len(jobs)})

	rc := campaign.RunConfig{
		Workers:    s.cfg.Workers,
		Runner:     s.runner,
		Catalog:    s.catalog,
		JobTimeout: s.cfg.JobTimeout,
		Retry:      s.cfg.Retry,
		// Events are written from campaign.Run's dispatcher goroutine;
		// the handler goroutine is parked in Run until every event has
		// been delivered, so the response writer has one writer at a
		// time.
		Progress: func(p campaign.Progress) {
			if p.Result == nil {
				return // the start event already went out
			}
			ew.write(Event{
				Event:   "job",
				Done:    p.Done,
				Total:   p.Total,
				Result:  p.Result,
				Novel:   p.Novel,
				Catalog: p.CatalogSize,
			})
			if p.Novel {
				ew.write(Event{
					Event:    "novel_attack",
					Campaign: spec.Name,
					Key:      p.Result.Canonical,
					Sequence: p.Result.Sequence,
					Category: p.Result.Category,
					Catalog:  p.CatalogSize,
				})
			}
		},
	}
	res, runErr := campaign.Run(r.Context(), spec, rc)
	done := Event{Event: "done", Campaign: spec.Name, Total: len(jobs)}
	if res != nil {
		done.Completed = res.Completed
		done.Failed = res.Failed
		done.Catalog = s.catalog.Len()
		done.ElapsedMS = res.Elapsed.Milliseconds()
	}
	if runErr != nil {
		done.Error = runErr.Error()
	}
	ew.write(done)
}

// handleCatalog serves a snapshot of the shared catalog: aggregate
// dedup statistics plus the top entries by rediscovery count
// (?limit=N, default 50, 0 for all).
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	limit := 50
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	entries := s.catalog.Entries()
	if limit > 0 && len(entries) > limit {
		entries = entries[:limit]
	}
	total, _ := s.catalog.Stats()
	writeJSON(w, struct {
		Len     int                     `json:"len"`
		Hits    uint64                  `json:"hits"`
		Misses  uint64                  `json:"misses"`
		Evicted uint64                  `json:"evictions"`
		Entries []campaign.Entry        `json:"entries"`
		Options campaign.CatalogOptions `json:"options"`
	}{total.Entries, total.Hits, total.Misses, total.Evictions, entries, s.catalog.Options()})
}

// handleStatus reports service liveness numbers for dashboards.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	active := s.active
	s.mu.Unlock()
	total, _ := s.catalog.Stats()
	writeJSON(w, struct {
		Active       int    `json:"active_campaigns"`
		MaxCampaigns int    `json:"max_campaigns"`
		CatalogLen   int    `json:"catalog_len"`
		Evictions    uint64 `json:"catalog_evictions"`
		MemoResults  int    `json:"memo_results"`
	}{active, s.cfg.MaxCampaigns, total.Entries, total.Evictions, s.flights.Len()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
