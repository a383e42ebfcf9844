package campaign

// FuzzPersistCorruption drives the "repair or refuse" contract of the
// persistence layer: given an arbitrarily truncated and bit-flipped
// checkpoint or artifact index, loading must never panic, and a
// successful reopen must never silently lose a subsequent append.

import (
	"os"
	"path/filepath"
	"testing"
)

// corruptFile applies the fuzz corruption: truncate the blob to cut
// bytes, then flip one bit somewhere in what remains.
func corruptFile(data []byte, cut, flip uint16) []byte {
	out := append([]byte(nil), data...)
	out = out[:int(cut)%(len(out)+1)]
	if len(out) > 0 {
		out[int(flip)%len(out)] ^= 1 << (flip % 8)
	}
	return out
}

func FuzzPersistCorruption(f *testing.F) {
	// Seeds: a healthy two-record checkpoint, a torn tail, a complete
	// final record missing only its newline, mid-file garbage, and an
	// artifact-shaped line.
	healthy := []byte(`{"job_id":"j1","name":"a","accuracy":1,"converged":true}` + "\n" +
		`{"job_id":"j2","name":"b","error":"job timeout (1s): x","retryable":true,"attempts":2}` + "\n")
	f.Add(healthy, uint16(0), uint16(0))
	f.Add(healthy, uint16(len(healthy)-10), uint16(3))
	f.Add([]byte(`{"job_id":"j1","accuracy":1}`), uint16(65535), uint16(0)) // no trailing newline
	f.Add([]byte("garbage\n{\"job_id\":\"j2\"}\n"), uint16(65535), uint16(0))
	f.Add([]byte(`{"id":"abc123","explorer":"search","sequence":"x","actions":[1],"accuracy":1,"mean_length":2,"scenario":{},"replay":{}}`+"\n"), uint16(65535), uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, cut, flip uint16) {
		blob := corruptFile(data, cut, flip)
		dir := t.TempDir()

		// Checkpoint path: load must repair (torn tail) or refuse
		// (mid-file corruption) — never panic, never yield a result
		// without a job ID.
		ckpt := filepath.Join(dir, "campaign.jsonl")
		if err := os.WriteFile(ckpt, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if loaded, err := LoadCheckpoint(ckpt); err == nil {
			for id := range loaded {
				if id == "" {
					t.Fatalf("LoadCheckpoint accepted a result with an empty job ID from %q", blob)
				}
			}
		}

		// Reopen-and-append: if the writer accepts the file, an appended
		// marker must survive a reload (the repair may drop corrupt
		// earlier records by refusing — but it must not silently lose the
		// new one).
		if w, err := checkpointFormat.open(ckpt); err == nil {
			marker := JobResult{JobID: "fuzz-marker", Name: "marker", Accuracy: 1}
			if err := w.append(marker); err != nil {
				t.Fatalf("append to repaired checkpoint failed: %v", err)
			}
			w.Close()
			loaded, err := LoadCheckpoint(ckpt)
			if err == nil {
				if _, ok := loaded["fuzz-marker"]; !ok {
					t.Fatalf("marker silently lost after repair of %q", blob)
				}
			}
			// err != nil is the refuse branch: pre-existing mid-file
			// corruption persists, and the loader says so.
		}

		// Artifact store: same contract for the index. Open refuses a
		// corrupt index outright (it lists at open); on success a Put
		// must round-trip through List.
		adir := filepath.Join(dir, "artifacts")
		if err := os.MkdirAll(adir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(adir, "artifacts.jsonl"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := OpenArtifactStore(adir)
		if err != nil {
			return // refused: corrupt index reported at open
		}
		art, _, err := store.Put(Artifact{Explorer: "search", Sequence: "v0 ...", Actions: []int{0}, Accuracy: 1})
		if err != nil {
			t.Fatalf("put into accepted store failed: %v", err)
		}
		arts, err := store.List()
		if err != nil {
			t.Fatalf("list after successful put failed: %v", err)
		}
		found := false
		for _, a := range arts {
			if a.ID == art.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("artifact %s silently lost after reopen of %q", art.ID, blob)
		}
		store.Close()
	})
}
