package obs

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	j.Emit(Event{Kind: EvCampaignStart, Name: "demo", Data: map[string]any{"jobs": 3}})
	j.Emit(Event{Kind: EvJobDone, Job: "abc123", Name: "lru/none", DurMS: 12.5,
		Data: map[string]any{"attack": true, "novel": true}})
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	events, skipped, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if skipped != 0 || len(events) != 2 {
		t.Fatalf("got %d events (%d skipped), want 2 (0 skipped)", len(events), skipped)
	}
	if events[0].Kind != EvCampaignStart || events[0].TS == 0 {
		t.Fatalf("first event mangled: %+v", events[0])
	}
	if events[1].Job != "abc123" || !dataBool(events[1].Data, "attack") {
		t.Fatalf("second event mangled: %+v", events[1])
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Emit(Event{Kind: EvJobDone}) // must not panic
	if err := j.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if j.Path() != "" {
		t.Fatal("nil Path not empty")
	}
}

// TestJournalTornTailRecovery simulates a crash mid-write: the journal
// ends in a partial JSON line. Reopening must terminate the torn tail
// so new events parse, and ReadJournal must skip exactly the mangled
// record.
func TestJournalTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	j.Emit(Event{Kind: EvCampaignStart, Name: "demo"})
	j.Emit(Event{Kind: EvJobDone, Job: "j1"})
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Tear the tail: append half an event with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"ts":123,"kind":"job.do`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume: reopen and keep journaling.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen torn journal: %v", err)
	}
	j2.Emit(Event{Kind: EvCampaignDone, Name: "demo"})
	if err := j2.Close(); err != nil {
		t.Fatalf("close after resume: %v", err)
	}

	events, skipped, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1 (the torn record)", skipped)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if events[2].Kind != EvCampaignDone {
		t.Fatalf("post-recovery event mangled: %+v", events[2])
	}
}

func TestJournalConcurrentEmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				j.Emit(Event{Kind: EvJobDone, Job: "j"})
			}
		}()
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := ReadJournal(path)
	if err != nil || skipped != 0 || len(events) != 800 {
		t.Fatalf("got %d events (%d skipped, err %v), want 800 intact", len(events), skipped, err)
	}
}

func TestScopeEmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithScope(context.Background(), Scope{Journal: j, Job: "jid", Name: "scen", Stage: "stage1"})
	sc := ScopeFrom(ctx)
	sc.Emit(Event{Kind: EvPPOEpoch, Data: map[string]any{"Epoch": 0}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, _, err := ReadJournal(path)
	if err != nil || len(events) != 1 {
		t.Fatalf("got %d events err %v, want 1", len(events), err)
	}
	if events[0].Job != "jid" || events[0].Name != "scen" || events[0].Stage != "stage1" {
		t.Fatalf("scope attribution missing: %+v", events[0])
	}
	// Scope-less context must be a silent no-op.
	ScopeFrom(context.Background()).Emit(Event{Kind: EvPPOEpoch})
}
