package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"autocat/internal/faults"
)

// Event is one journal record. Data carries kind-specific payloads
// (EpochStats for ppo.epoch, summary maps for lifecycle events); on
// read it decodes to map[string]any / float64 per encoding/json.
type Event struct {
	TS    int64   `json:"ts"` // µs since the Unix epoch
	Kind  string  `json:"kind"`
	Name  string  `json:"name,omitempty"`  // scenario name
	Job   string  `json:"job,omitempty"`   // campaign job ID
	Stage string  `json:"stage,omitempty"` // staged-run stage label
	DurMS float64 `json:"dur_ms,omitempty"`
	Data  any     `json:"data,omitempty"`
}

// Journal event kinds.
const (
	EvCampaignStart   = "campaign.start"
	EvCampaignDone    = "campaign.done"
	EvStageStart      = "stage.start"
	EvStageDone       = "stage.done"
	EvEscalate        = "campaign.escalate"
	EvJobStart        = "job.start"
	EvJobDone         = "job.done"
	EvJobPanic        = "job.panic"
	EvJobRetry        = "job.retry"
	EvArtifactDrop    = "artifact.drop"
	EvCheckpointRetry = "checkpoint.retry"
	EvFirstReliable   = "job.first_reliable"
	EvPPOEpoch        = "ppo.epoch"
)

// A Journal is an append-only JSONL event sink. Telemetry is lossy by
// design: write errors are counted (journal.errors_total) and dropped,
// never surfaced to the run — a full disk must not kill a campaign. A
// nil *Journal is a valid no-op sink, so call sites emit
// unconditionally.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	err  bool // a write failed; keep trying but remember for Close
}

// OpenJournal opens (creating if needed) an append-mode journal at
// path. A torn final line from a crashed earlier run is terminated with
// a newline so subsequent events start clean; readers skip the mangled
// record.
func OpenJournal(path string) (*Journal, error) {
	// O_RDWR, not O_WRONLY: the torn-tail probe reads the last byte.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		tail := make([]byte, 1)
		if _, err := f.ReadAt(tail, st.Size()-1); err == nil && tail[0] != '\n' {
			if _, err := f.Write([]byte("\n")); err != nil {
				f.Close()
				return nil, fmt.Errorf("obs: terminate torn journal tail: %w", err)
			}
		}
	}
	return &Journal{f: f, path: path}, nil
}

// Path returns the journal file path ("" for a nil journal).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Emit appends one event. The timestamp is stamped here unless the
// caller set it. Safe on a nil receiver and from concurrent goroutines.
func (j *Journal) Emit(ev Event) {
	if j == nil {
		return
	}
	if ev.TS == 0 {
		ev.TS = time.Now().UnixMicro()
	}
	line, err := json.Marshal(ev)
	if err != nil {
		JournalErrors.Inc()
		return
	}
	line = append(line, '\n')
	j.mu.Lock()
	werr := faults.ErrorAt("journal.write")
	if werr == nil {
		_, werr = j.f.Write(line)
	}
	if werr != nil {
		j.err = true
	}
	j.mu.Unlock()
	if werr != nil {
		JournalErrors.Inc()
		return
	}
	JournalEvents.Inc()
}

// Close flushes and closes the journal file. Safe on nil.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.f.Close()
	if j.err && err == nil {
		err = fmt.Errorf("obs: journal %s dropped events on write errors", j.path)
	}
	return err
}

// ReadJournal parses a journal file, skipping malformed lines (torn
// tails, partial writes) and reporting how many were skipped. Unlike
// the campaign checkpoint, which treats mid-file corruption as fatal,
// journal reads are best-effort: telemetry is evidence, not state.
func ReadJournal(path string) (events []Event, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if json.Unmarshal(line, &ev) != nil || ev.Kind == "" {
			skipped++
			continue
		}
		events = append(events, ev)
	}
	if serr := sc.Err(); serr != nil {
		return events, skipped, serr
	}
	return events, skipped, nil
}
