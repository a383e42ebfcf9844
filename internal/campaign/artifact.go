package campaign

// The content-addressed attack-artifact store: every discovery a
// campaign makes — whichever explorer made it — persists as a record
// holding the scenario configuration, the explorer attribution, the
// action sequence, the eval statistics, and a replay recipe
// (core.ReplaySpec, with trained-policy weights in a separate
// content-addressed blob). Replaying an artifact rebuilds a fresh
// environment from the stored scenario and reruns the recipe, which
// reproduces the recorded sequence and accuracy bit-for-bit; the store
// is what turns a campaign from "a table of results" into a corpus of
// reproducible attacks.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"autocat/internal/core"
	"autocat/internal/env"
	"autocat/internal/faults"
)

// Artifact is one persisted attack discovery.
type Artifact struct {
	// ID is the content hash of the record (with ID blank), so identical
	// discoveries — same scenario, explorer, sequence, stats, weights —
	// deduplicate naturally.
	ID string `json:"id"`
	// JobID and Name attribute the artifact to the campaign job that
	// produced it.
	JobID string `json:"job_id,omitempty"`
	Name  string `json:"name,omitempty"`
	// Explorer is the backend kind; ParamsHash pins its parameters.
	Explorer   string `json:"explorer"`
	ParamsHash string `json:"params_hash,omitempty"`
	// Scenario is the full configuration the attack was found on.
	Scenario Scenario `json:"scenario"`
	// Replay is the deterministic evaluation recipe. Its weights blob
	// (PPO policies) lives in a separate file keyed by WeightsHash.
	Replay      core.ReplaySpec `json:"replay"`
	WeightsHash string          `json:"weights_hash,omitempty"`
	// The recorded attack: the replayed action sequence, its arrow
	// notation, the catalog key, and the Table I category.
	Actions   []int  `json:"actions"`
	Sequence  string `json:"sequence"`
	Canonical string `json:"canonical,omitempty"`
	Category  string `json:"category,omitempty"`
	// The recorded evaluation, reproduced exactly by Replay.
	Accuracy   float64 `json:"accuracy"`
	MeanLength float64 `json:"mean_length"`
}

// artifactID hashes the record's canonical JSON with the ID field
// blanked; struct field order is fixed, so the hash is stable.
func artifactID(a Artifact) (string, error) {
	a.ID = ""
	blob, err := json.Marshal(a)
	if err != nil {
		return "", fmt.Errorf("campaign: artifact for %q not hashable: %w", a.Name, err)
	}
	h := fnv.New64a()
	h.Write(blob)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// hashBytes is the content address of a weights blob.
func hashBytes(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ArtifactStore is an append-only, content-addressed artifact directory:
// artifacts.jsonl holds the records, weights/<hash>.gob the policy
// blobs. It is safe for concurrent use by campaign workers; duplicate
// discoveries (same content hash) append nothing.
type ArtifactStore struct {
	dir string

	mu   sync.Mutex
	log  *recordLog[Artifact]
	seen map[string]bool
}

// OpenArtifactStore creates (or reopens) the store directory and indexes
// the existing records so rediscoveries deduplicate across campaign
// resumes.
func OpenArtifactStore(dir string) (*ArtifactStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, "weights"), 0o755); err != nil {
		return nil, err
	}
	s := &ArtifactStore{dir: dir, seen: map[string]bool{}}
	arts, err := s.List()
	if err != nil {
		return nil, err
	}
	for _, a := range arts {
		s.seen[a.ID] = true
	}
	if s.log, err = artifactFormat.open(s.indexPath()); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *ArtifactStore) indexPath() string { return filepath.Join(s.dir, "artifacts.jsonl") }

func (s *ArtifactStore) weightsPath(hash string) string {
	return filepath.Join(s.dir, "weights", hash+".gob")
}

// Close releases the append handle.
func (s *ArtifactStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}

// Put content-addresses and persists one artifact: the weights blob (if
// any) is written first under its hash, then the record appends to the
// index, which a failed write rolls back (see recordLog.append). It
// returns the completed artifact and whether it was novel; a
// rediscovered artifact writes nothing.
func (s *ArtifactStore) Put(a Artifact) (Artifact, bool, error) {
	// Fault site before any mutation: an injected failure models a full
	// or broken disk without leaving half an artifact behind.
	if err := faults.ErrorAt("artifact.put"); err != nil {
		return a, false, err
	}
	weights := a.Replay.Weights
	if len(weights) > 0 {
		a.WeightsHash = hashBytes(weights)
	}
	id, err := artifactID(a)
	if err != nil {
		return a, false, err
	}
	a.ID = id

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return a, false, fmt.Errorf("campaign: artifact store %s is closed", s.dir)
	}
	if s.seen[id] {
		return a, false, nil
	}
	if len(weights) > 0 {
		path := s.weightsPath(a.WeightsHash)
		if _, err := os.Stat(path); err != nil {
			// Write-then-rename so a killed process never leaves a torn
			// blob under a content hash.
			tmp := path + ".tmp"
			if err := os.WriteFile(tmp, weights, 0o644); err != nil {
				return a, false, err
			}
			if err := os.Rename(tmp, path); err != nil {
				return a, false, err
			}
		}
	}
	if err := s.log.append(a); err != nil {
		return a, false, err
	}
	s.seen[id] = true
	return a, true, nil
}

// List reads every artifact record, in append order with duplicates (by
// ID) dropped. A torn final line — a killed campaign — is ignored.
func (s *ArtifactStore) List() ([]Artifact, error) {
	var out []Artifact
	seen := map[string]bool{}
	err := artifactFormat.read(s.indexPath(), func(a Artifact) {
		if !seen[a.ID] {
			seen[a.ID] = true
			out = append(out, a)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Get returns the artifact with the given ID.
func (s *ArtifactStore) Get(id string) (Artifact, error) {
	arts, err := s.List()
	if err != nil {
		return Artifact{}, err
	}
	for _, a := range arts {
		if a.ID == id {
			return a, nil
		}
	}
	return Artifact{}, fmt.Errorf("campaign: artifact %s not found in %s", id, s.dir)
}

// ReplayReport is the outcome of verifying one artifact: the replayed
// sequence and statistics next to the recorded ones, and whether they
// match bit-for-bit.
type ReplayReport struct {
	Artifact   Artifact
	Sequence   string
	Accuracy   float64
	MeanLength float64
	Match      bool
}

// Replay reruns an artifact's recipe against a fresh environment built
// from its stored scenario and verifies the deterministic-replay
// contract: same action sequence, same accuracy, bit-for-bit.
func (s *ArtifactStore) Replay(a Artifact) (ReplayReport, error) {
	spec := a.Replay
	if a.WeightsHash != "" {
		weights, err := os.ReadFile(s.weightsPath(a.WeightsHash))
		if err != nil {
			return ReplayReport{Artifact: a}, err
		}
		if got := hashBytes(weights); got != a.WeightsHash {
			return ReplayReport{Artifact: a}, fmt.Errorf(
				"campaign: weights blob %s corrupt: content hash %s", a.WeightsHash, got)
		}
		spec.Weights = weights
	}
	res, err := core.Replay(spec, a.Scenario.Env)
	if err != nil {
		return ReplayReport{Artifact: a}, err
	}
	rep := ReplayReport{
		Artifact:   a,
		Sequence:   res.Sequence,
		Accuracy:   res.Eval.Accuracy,
		MeanLength: res.Eval.MeanLength,
	}
	rep.Match = rep.Sequence == a.Sequence &&
		rep.Accuracy == a.Accuracy &&
		rep.MeanLength == a.MeanLength &&
		slices.Equal(res.Attack.Actions, a.Actions)
	return rep, nil
}

// VerifyAll replays every stored artifact (sorted by ID for determinism)
// and returns the reports.
func (s *ArtifactStore) VerifyAll() ([]ReplayReport, error) {
	arts, err := s.List()
	if err != nil {
		return nil, err
	}
	sort.Slice(arts, func(i, j int) bool { return arts[i].ID < arts[j].ID })
	var out []ReplayReport
	for _, a := range arts {
		rep, err := s.Replay(a)
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// artifactFromResult assembles the persistable record for one successful
// exploration. The recorded Actions/Sequence/Accuracy must be exactly
// what a later replay reproduces: the search and probe backends already
// produce their results through core.Replay on a fresh environment, so
// their numbers are used directly; the PPO backend evaluates on its
// trained rollout environment (whose RNG stream has advanced), so its
// recipe is rerun once through the same replay path. The canonical key
// is computed from the replayed actions.
func artifactFromResult(job Job, res *core.Result) (Artifact, error) {
	if res.Replay == nil {
		return Artifact{}, fmt.Errorf("campaign: result of %q has no replay recipe", job.Scenario.Name)
	}
	rep := res
	if res.Kind == core.ExplorerPPO || res.Kind == "" {
		var err error
		if rep, err = core.Replay(*res.Replay, job.Scenario.Env); err != nil {
			return Artifact{}, err
		}
	}
	if !rep.AttackOK {
		return Artifact{}, fmt.Errorf("campaign: %q: replay does not reproduce a correct attack", job.Scenario.Name)
	}
	e, err := env.New(job.Scenario.Env)
	if err != nil {
		return Artifact{}, err
	}
	kind := res.Kind
	if kind == "" {
		kind = core.ExplorerPPO
	}
	return Artifact{
		JobID:      job.ID,
		Name:       job.Scenario.Name,
		Explorer:   string(kind),
		Scenario:   job.Scenario,
		Replay:     *res.Replay,
		Actions:    append([]int(nil), rep.Attack.Actions...),
		Sequence:   rep.Sequence,
		Canonical:  Canonicalize(e, rep.Attack.Actions),
		Category:   string(rep.Category),
		Accuracy:   rep.Eval.Accuracy,
		MeanLength: rep.Eval.MeanLength,
	}, nil
}
