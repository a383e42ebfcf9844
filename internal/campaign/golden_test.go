package campaign

// The lifecycle golden: one stub-runner campaign on one worker that
// covers a retry, a panic, novel and rediscovered attacks, a fatal
// failure, a no-attack job and a resume. Its journal (minus the
// wall-clock fields) and its WriterProgress text are pinned byte for
// byte, so a change to how Run builds its events cannot silently change
// what `autocat stats` reads or what the CLI prints. Record with
//
//	go test ./internal/campaign -run LifecycleGolden -update-golden

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"autocat/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate golden testdata files")

// goldenRunner scripts each job of gridSpec(1, 2) by index. Job 5 fails
// transiently on every attempt of the first run and succeeds on resume.
func goldenRunner(counts *attemptCounter, resumed bool) Runner {
	attack := func(key string) JobResult {
		return JobResult{Sequence: key + "→g", Canonical: key, Category: "prime+probe", Converged: true, Accuracy: 1}
	}
	return func(ctx context.Context, job Job) JobResult {
		switch job.Index {
		case 0, 1:
			return attack("A0 V A0 G0")
		case 2:
			if counts.next(job.ID) == 1 {
				panic("poisoned grid point")
			}
			return attack("A0 V A0 G1")
		case 3:
			return JobResult{Error: "bad scenario: no attacker lines"}
		case 4:
			return JobResult{Epochs: 20, Accuracy: 0.5}
		case 5:
			if !resumed {
				return JobResult{Error: "write results: input/output error"}
			}
			return attack("A0 V A0 G1")
		case 6:
			return attack("A0 A1 V A0 G0")
		}
		return JobResult{Converged: true, Epochs: 12, Accuracy: 0.97}
	}
}

var (
	// The journal's wall-clock fields and the panic stack (goroutine ids,
	// source lines) vary run to run; everything else is deterministic.
	journalTS    = regexp.MustCompile(`"ts":\d+,`)
	journalDur   = regexp.MustCompile(`,"dur_ms":[0-9.e+-]+`)
	journalStack = regexp.MustCompile(`,"stack":"(?:[^"\\]|\\.)*"`)
	// WriterProgress's job duration and pace are wall-clock readings.
	progressDur  = regexp.MustCompile(` +\d+\.\ds  \(catalog`)
	progressRate = regexp.MustCompile(`, [0-9.]+ jobs/s`)
	progressETA  = regexp.MustCompile(`, eta [^)]+\)`)
)

func TestLifecycleGolden(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "telemetry.jsonl")
	var text bytes.Buffer
	var counts attemptCounter
	for _, resume := range []bool{false, true} {
		j, err := obs.OpenJournal(journalPath)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(context.Background(), gridSpec(1, 2), RunConfig{
			Workers:    1,
			Checkpoint: filepath.Join(dir, "campaign.jsonl"),
			Resume:     resume,
			Journal:    j,
			Retry:      quickRetry(2),
			Runner:     goldenRunner(&counts, resume),
			Progress:   WriterProgress(&text),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	journal := journalStack.ReplaceAll(journalDur.ReplaceAll(journalTS.ReplaceAll(raw, nil), nil), nil)
	progress := progressDur.ReplaceAll(text.Bytes(), []byte(" X.Xs  (catalog"))
	progress = progressETA.ReplaceAll(progressRate.ReplaceAll(progress, []byte(", X jobs/s")), []byte(", eta X)"))

	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"lifecycle_journal.jsonl", journal},
		{"lifecycle_progress.txt", progress},
	} {
		path := filepath.Join("testdata", g.file)
		if *updateGolden {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run with -update-golden): %v", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s differs from the golden:\n got:\n%s\nwant:\n%s", g.file, g.got, want)
		}
	}
}
