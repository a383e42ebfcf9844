package obs

import (
	"context"
	"time"
)

// Scope attributes telemetry emitted deep in the stack (PPO epochs) to
// the campaign job that owns the goroutine. It rides the context from
// campaign.Run through the explorer backends into the trainer, so
// instrumented layers need no new config fields — important because
// explorer option structs feed ParamsHash and must not change.
type Scope struct {
	Journal *Journal
	Job     string // campaign job ID
	Name    string // scenario name
	Stage   string // staged-run stage label
}

type scopeKey struct{}

// WithScope attaches sc to ctx.
func WithScope(ctx context.Context, sc Scope) context.Context {
	return context.WithValue(ctx, scopeKey{}, sc)
}

// ScopeFrom returns the scope attached to ctx, or a zero Scope (whose
// nil Journal makes Emit a no-op).
func ScopeFrom(ctx context.Context) Scope {
	sc, _ := ctx.Value(scopeKey{}).(Scope)
	return sc
}

// Emit journals ev with the scope's attribution filled in where the
// event left it blank. No-op when the scope has no journal.
func (sc Scope) Emit(ev Event) {
	if sc.Journal == nil {
		return
	}
	if ev.Job == "" {
		ev.Job = sc.Job
	}
	if ev.Name == "" && sc.Name != "" {
		ev.Name = sc.Name
	}
	if ev.Stage == "" {
		ev.Stage = sc.Stage
	}
	sc.Journal.Emit(ev)
}

// A Timer observes an elapsed duration into a histogram without any
// allocation (value receiver, no closure).
type Timer struct {
	h  *Histogram
	t0 time.Time
}

// StartTimer begins timing into h.
func StartTimer(h *Histogram) Timer { return Timer{h: h, t0: time.Now()} }

// Stop records the elapsed time and returns it.
func (t Timer) Stop() time.Duration {
	d := time.Since(t.t0)
	t.h.Observe(d.Nanoseconds())
	return d
}
