// Package faults is a seeded, deterministic fault-injection registry:
// the test harness behind the campaign engine's fault-tolerance layer.
// Production code declares named sites by calling one of the At helpers
// on its failure path: "checkpoint.write" and "artifact.write" (a
// record-log write failing after its bytes reach the file),
// "checkpoint.crash" and "artifact.crash" (a hard abort right after a
// durable record), "artifact.put" (before an artifact's weights blob),
// "runner.panic", "runner.hang" and "journal.write"; a test (or the
// AUTOCAT_FAULTS environment variable) arms a Plan that triggers those
// sites by call count or seeded probability. Disarmed — the production default — every site
// check is a single atomic pointer load and a nil test: no locks, no
// allocations, nothing on the hot path.
//
// Triggers are deterministic by construction: nth/every fire on exact
// per-site call counts, and probabilistic triggers draw from a
// per-site RNG seeded from the plan seed and the site name, so the
// same plan over the same call sequence injects the same faults.
package faults

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"autocat/internal/rng"
)

// EnvVar is the environment variable the CLIs arm plans from, e.g.
// AUTOCAT_FAULTS="checkpoint.write:nth=7;runner.panic:nth=3".
const EnvVar = "AUTOCAT_FAULTS"

// CrashExitCode is the process exit status of CrashAt — distinct from
// test-failure and panic codes so crash-equivalence harnesses can
// assert the abort was the injected one.
const CrashExitCode = 86

// ErrInjected is the sentinel wrapped by every ErrorAt failure; the
// campaign error taxonomy classifies it as transient.
var ErrInjected = errors.New("injected fault")

// SitePlan arms one site. At least one trigger (Nth, Every, or P) must
// be set.
type SitePlan struct {
	// Site names the injection point, e.g. "checkpoint.write".
	Site string
	// Nth fires on exactly the Nth call to the site (1-based), once.
	Nth int
	// Every fires on every Every-th call (call numbers that are
	// multiples of Every).
	Every int
	// P fires each call with probability P, drawn from the site's
	// seeded RNG.
	P float64
	// Limit caps total fires for this site; 0 means unlimited (Nth
	// fires once regardless).
	Limit int
}

// Plan is a full arming: a seed for the probabilistic triggers plus the
// armed sites.
type Plan struct {
	// Seed drives the per-site RNGs of probabilistic triggers; 0 means 1.
	Seed  int64
	Sites []SitePlan
}

// String renders the plan in the Parse grammar.
func (p Plan) String() string {
	parts := make([]string, 0, len(p.Sites))
	for _, sp := range p.Sites {
		var ts []string
		if sp.Nth > 0 {
			ts = append(ts, "nth="+strconv.Itoa(sp.Nth))
		}
		if sp.Every > 0 {
			ts = append(ts, "every="+strconv.Itoa(sp.Every))
		}
		if sp.P > 0 {
			ts = append(ts, "p="+strconv.FormatFloat(sp.P, 'g', -1, 64))
		}
		if sp.Limit > 0 {
			ts = append(ts, "limit="+strconv.Itoa(sp.Limit))
		}
		parts = append(parts, sp.Site+":"+strings.Join(ts, ","))
	}
	return strings.Join(parts, ";")
}

// Parse decodes "site:trigger[,trigger...][;site:...]" where trigger is
// nth=N, every=N, p=F, or limit=N.
func Parse(s string) (Plan, error) {
	var p Plan
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, triggers, found := strings.Cut(entry, ":")
		site = strings.TrimSpace(site)
		if !found || site == "" {
			return Plan{}, fmt.Errorf("faults: %q is not site:trigger", entry)
		}
		sp := SitePlan{Site: site}
		for _, tr := range strings.Split(triggers, ",") {
			key, val, _ := strings.Cut(strings.TrimSpace(tr), "=")
			var err error
			switch key {
			case "nth":
				sp.Nth, err = strconv.Atoi(val)
			case "every":
				sp.Every, err = strconv.Atoi(val)
			case "p":
				sp.P, err = strconv.ParseFloat(val, 64)
			case "limit":
				sp.Limit, err = strconv.Atoi(val)
			default:
				err = fmt.Errorf("unknown trigger %q", key)
			}
			if err != nil {
				return Plan{}, fmt.Errorf("faults: site %s: %v", site, err)
			}
		}
		if sp.Nth <= 0 && sp.Every <= 0 && sp.P <= 0 {
			return Plan{}, fmt.Errorf("faults: site %s has no trigger (want nth=, every=, or p=)", site)
		}
		p.Sites = append(p.Sites, sp)
	}
	return p, nil
}

// siteState is one armed site's live trigger state.
type siteState struct {
	plan  SitePlan
	calls atomic.Int64
	fires atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

type registry struct {
	sites map[string]*siteState
}

// armed is the active registry; nil when disarmed. The atomic pointer
// is the entire disarmed fast path.
var armed atomic.Pointer[registry]

// Arm installs the plan, replacing any previous arming and resetting
// all call/fire counts.
func Arm(p Plan) error {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	r := &registry{sites: make(map[string]*siteState, len(p.Sites))}
	for _, sp := range p.Sites {
		if sp.Site == "" {
			return fmt.Errorf("faults: empty site name")
		}
		if sp.Nth <= 0 && sp.Every <= 0 && sp.P <= 0 {
			return fmt.Errorf("faults: site %s has no trigger", sp.Site)
		}
		h := fnv.New64a()
		h.Write([]byte(sp.Site))
		r.sites[sp.Site] = &siteState{
			plan: sp,
			rng:  rand.New(rng.New(seed ^ int64(h.Sum64()))),
		}
	}
	armed.Store(r)
	return nil
}

// ArmString parses and arms a plan in one step.
func ArmString(s string) error {
	p, err := Parse(s)
	if err != nil {
		return err
	}
	return Arm(p)
}

// ArmFromEnv arms the plan in $AUTOCAT_FAULTS, if set, and returns the
// armed plan string ("" when the variable is unset or empty).
func ArmFromEnv() (string, error) {
	s := strings.TrimSpace(os.Getenv(EnvVar))
	if s == "" {
		return "", nil
	}
	if err := ArmString(s); err != nil {
		return "", err
	}
	return s, nil
}

// Disarm removes the active plan; every site check reverts to the
// zero-overhead nil fast path.
func Disarm() { armed.Store(nil) }

// Armed reports whether a plan is active.
func Armed() bool { return armed.Load() != nil }

// Hit records one call to site and reports whether the armed plan fires
// a fault on it. Disarmed (or for an unarmed site) it is a single
// atomic load plus map lookup, allocation-free.
func Hit(site string) bool {
	r := armed.Load()
	if r == nil {
		return false
	}
	st := r.sites[site]
	if st == nil {
		return false
	}
	n := st.calls.Add(1)
	fire := false
	if st.plan.Nth > 0 && n == int64(st.plan.Nth) {
		fire = true
	}
	if st.plan.Every > 0 && n%int64(st.plan.Every) == 0 {
		fire = true
	}
	if !fire && st.plan.P > 0 {
		st.mu.Lock()
		fire = st.rng.Float64() < st.plan.P
		st.mu.Unlock()
	}
	if fire && st.plan.Limit > 0 && st.fires.Load() >= int64(st.plan.Limit) {
		fire = false
	}
	if fire {
		st.fires.Add(1)
	}
	return fire
}

// ErrorAt returns an injected error when the site fires, nil otherwise.
// The error wraps ErrInjected, which the campaign taxonomy treats as
// transient.
func ErrorAt(site string) error {
	if Hit(site) {
		return fmt.Errorf("%w at %s", ErrInjected, site)
	}
	return nil
}

// PanicAt panics when the site fires.
func PanicAt(site string) {
	if Hit(site) {
		panic("injected fault at " + site)
	}
}

// HangAt blocks until ctx is done when the site fires — the
// deterministic stand-in for a hung job, unblocked by per-job deadlines
// or campaign cancellation.
func HangAt(ctx context.Context, site string) {
	if Hit(site) {
		<-ctx.Done()
	}
}

// CrashAt hard-aborts the process (os.Exit, no deferred cleanup, no
// flushes beyond what callers already synced) when the site fires — the
// in-tree equivalent of kill -9 for crash-equivalence tests.
func CrashAt(site string) {
	if Hit(site) {
		os.Exit(CrashExitCode)
	}
}

// Calls returns how many times the site has been checked since arming.
func Calls(site string) int64 {
	if r := armed.Load(); r != nil {
		if st := r.sites[site]; st != nil {
			return st.calls.Load()
		}
	}
	return 0
}

// Fires returns how many faults the site has injected since arming.
func Fires(site string) int64 {
	if r := armed.Load(); r != nil {
		if st := r.sites[site]; st != nil {
			return st.fires.Load()
		}
	}
	return 0
}

// TotalFires sums injected faults across all armed sites.
func TotalFires() int64 {
	r := armed.Load()
	if r == nil {
		return 0
	}
	var total int64
	for _, st := range r.sites {
		total += st.fires.Load()
	}
	return total
}

// Sites returns the armed site names, sorted, for diagnostics.
func Sites() []string {
	r := armed.Load()
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.sites))
	for name := range r.sites {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
