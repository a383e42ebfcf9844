package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// refRows returns a reference with every table row at 100 (0 for the
// allocs rows).
func refRows() map[string]float64 {
	m := make(map[string]float64)
	for _, e := range table {
		for _, r := range e.rows {
			m[r.name] = 100
			if r.dir == allocs {
				m[r.name] = 0
			}
		}
	}
	return m
}

// with returns a copy of m with key set to v.
func with(m map[string]float64, key string, v float64) map[string]float64 {
	c := make(map[string]float64, len(m))
	for k, x := range m {
		c[k] = x
	}
	c[key] = v
	return c
}

func TestCompareRatioGate(t *testing.T) {
	ref := refRows()
	for _, tc := range []struct {
		name    string
		now     float64
		regress bool
	}{
		{"step_ns_per_op", 410, true},                // 4.1x the cost
		{"step_ns_per_op", 390, false},               // 3.9x the cost
		{"step_ns_per_op", 10, false},                // faster
		{"ppo_epoch_steps_per_sec", 100 / 4.1, true}, // 4.1x slower
		{"ppo_epoch_steps_per_sec", 100 / 3.9, false},
		{"ppo_epoch_steps_per_sec", 1000, false}, // faster
	} {
		lines, err := compare(ref, with(ref, tc.name, tc.now), 3.0)
		if (err != nil) != tc.regress {
			t.Errorf("%s at %g: err = %v, want regression %v", tc.name, tc.now, err, tc.regress)
		}
		if tc.regress && !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: error %q does not name the row", tc.name, err)
		}
		if len(lines) != len(ref) {
			t.Errorf("%d report lines, want one per row (%d)", len(lines), len(ref))
		}
	}
}

func TestCompareAllocsStrict(t *testing.T) {
	ref := refRows()
	for _, tol := range []float64{0, 3, 1e9} {
		if _, err := compare(ref, with(ref, "tanh_allocs_per_op", 1), tol); err == nil {
			t.Errorf("tolerance %g: allocs 0 -> 1 passed", tol)
		}
	}
}

func TestCompareNoReference(t *testing.T) {
	ref := refRows()
	cur := refRows()
	delete(ref, "artifact_replay_ns")
	cur["artifact_replay_ns"] = 1e12
	lines, err := compare(ref, cur, 3.0)
	if err != nil {
		t.Fatalf("row missing from the reference failed the gate: %v", err)
	}
	i := slices.IndexFunc(lines, func(l string) bool { return strings.Contains(l, "artifact_replay_ns") })
	if i < 0 || !strings.Contains(lines[i], "(no reference)") {
		t.Fatalf("missing reference not reported: %q", lines)
	}
}

func TestCompareUnknownReferenceKey(t *testing.T) {
	ref := with(refRows(), "campaign_jobs_per_sec_4workers", 4.9)
	_, err := compare(ref, refRows(), 3.0)
	if err == nil || !strings.Contains(err.Error(), "campaign_jobs_per_sec_4workers") {
		t.Fatalf("unknown reference key: err = %v", err)
	}
}

// TestCommittedReferenceMatchesTable: the committed reference has
// exactly the table's rows, so -compare gates every one of them.
func TestCommittedReferenceMatchesTable(t *testing.T) {
	data, err := os.ReadFile("../../" + hotpathFile)
	if err != nil {
		t.Fatal(err)
	}
	var ref map[string]float64
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for k := range ref {
		got = append(got, k)
	}
	for k := range refRows() {
		want = append(want, k)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s rows = %v, want the table's %v", hotpathFile, got, want)
	}
}
