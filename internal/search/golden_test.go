package search

// Golden search table: fixed-seed RandomSearch and ExhaustiveSearch runs
// over the screen grid's replay-deterministic configurations must return
// bit-identical Results — Found, Attack, Sequences and Steps — across
// refactors of the walker, the env step and the cache. Regenerate
// deliberately with
//
//	go test ./internal/search -run Golden -update-golden
//
// and review the diff: a changed row means the search explores a
// different candidate stream or charges a different step count.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"autocat/internal/cache"
	"autocat/internal/env"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate golden testdata files")

const goldenTablePath = "testdata/golden_search.jsonl"

// goldenRow is one recorded search.
type goldenRow struct {
	Config    string `json:"config"`
	Mode      string `json:"mode"`
	Length    int    `json:"length"`
	Found     bool   `json:"found"`
	Sequences int    `json:"sequences"`
	Steps     int    `json:"steps"`
	Attack    []int  `json:"attack"`
}

type namedConfig struct {
	name string
	cfg  env.Config
}

// goldenConfigs enumerates caches {DM 4×1, FA 4×4, SA 8×2, 2×2} ×
// {lru, plru, rrip} × defenses {none, partition} × attackers {4–7, 0–3,
// 1–2} × victims {0, 0–3}, flush on, skipping geometries a defense
// rejects (partition needs two ways).
func goldenConfigs() []namedConfig {
	var out []namedConfig
	geoms := []cache.Config{{NumBlocks: 4, NumWays: 1}, {NumBlocks: 4, NumWays: 4}, {NumBlocks: 8, NumWays: 2}, {NumBlocks: 2, NumWays: 2}}
	seed := int64(1)
	for _, g := range geoms {
		for _, pol := range []cache.PolicyKind{cache.LRU, cache.PLRU, cache.RRIP} {
			for _, def := range []cache.DefenseKind{cache.DefenseNone, cache.DefensePartition} {
				c := g
				c.Policy, c.Defense = pol, cache.DefenseConfig{Kind: def}
				if c.Validate() != nil {
					continue
				}
				label := string(def)
				if def == cache.DefenseNone {
					label = "none"
				}
				for _, att := range [][2]cache.Addr{{4, 7}, {0, 3}, {1, 2}} {
					for _, vhi := range []cache.Addr{0, 3} {
						out = append(out, namedConfig{
							name: fmt.Sprintf("%dx%d/%s/%s/a%d-%d/v0-%d", g.NumBlocks, g.NumWays, pol, label, att[0], att[1], vhi),
							cfg: env.Config{
								Cache:      c,
								AttackerLo: att[0], AttackerHi: att[1],
								VictimLo: 0, VictimHi: vhi,
								FlushEnable:    true,
								VictimNoAccess: true,
								Warmup:         -1,
								Seed:           seed,
							},
						})
						seed++
					}
				}
			}
		}
	}
	return out
}

// TestSearchGoldenTable runs every golden configuration at lengths 1–7
// with budget 700, random and exhaustive, on 1 and 3 workers. Both
// worker counts must agree, and the table must match the recorded one
// byte for byte. A second pass runs each configuration's lengths in
// order through one Memo per mode on 2 workers, as an exploration does,
// and must write the same table.
func TestSearchGoldenTable(t *testing.T) {
	const budget = 700
	ctx := context.Background()
	var buf, shared bytes.Buffer
	for _, nc := range goldenConfigs() {
		memos := map[string]*Searcher{"random": NewSearcher(newEnvT(t, nc.cfg)), "exhaustive": NewSearcher(newEnvT(t, nc.cfg))}
		for length := 1; length <= 7; length++ {
			for _, mode := range []string{"random", "exhaustive"} {
				var base Result
				for i, workers := range []int{1, 3} {
					e := newEnvT(t, nc.cfg)
					if !incrementalOK(e) {
						t.Fatalf("%s: golden configs must run on the walker", nc.name)
					}
					var r Result
					if mode == "random" {
						r = NewSearcher(e).Random(ctx, length, budget, int64(length)*7+1, workers)
					} else {
						r = NewSearcher(e).Exhaustive(ctx, length, budget, workers)
					}
					if i == 0 {
						base = r
					} else if !reflect.DeepEqual(r, base) {
						t.Fatalf("%s %s length %d: workers %d gave %+v, workers 1 %+v", nc.name, mode, length, workers, r, base)
					}
				}
				writeGoldenRow(t, &buf, nc.name, mode, length, base)
				var r Result
				if mode == "random" {
					r = memos[mode].Random(ctx, length, budget, int64(length)*7+1, 2)
				} else {
					r = memos[mode].Exhaustive(ctx, length, budget, 2)
				}
				writeGoldenRow(t, &shared, nc.name, mode, length, r)
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenTablePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTablePath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenTablePath)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden): %v", err)
	}
	diffTable(t, "golden", buf.Bytes(), want)
	diffTable(t, "shared-memo", shared.Bytes(), want)
}

// writeGoldenRow appends one search's row to buf.
func writeGoldenRow(t *testing.T, buf *bytes.Buffer, config, mode string, length int, r Result) {
	t.Helper()
	row, err := json.Marshal(goldenRow{
		Config: config, Mode: mode, Length: length,
		Found: r.Found, Sequences: r.Sequences, Steps: r.Steps, Attack: r.Attack,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(row)
	buf.WriteByte('\n')
}

// diffTable fails at the first row where got differs from want.
func diffTable(t *testing.T, pass string, got, want []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			t.Fatalf("%s row %d differs:\n got  %s\n want %s", pass, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s table has %d rows, want %d", pass, len(gl)-1, len(wl)-1)
}
