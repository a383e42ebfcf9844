package autocat_test

import (
	"context"
	"strings"
	"testing"

	"autocat"
)

// These tests exercise the public facade end to end on the fast paths
// (no RL training); the internal packages carry the deep suites.

func TestFacadeCacheRoundTrip(t *testing.T) {
	c := autocat.NewCache(autocat.CacheConfig{NumBlocks: 8, NumWays: 2, Policy: autocat.PLRU})
	if r := c.Access(3, autocat.DomainAttacker); r.Hit {
		t.Fatal("cold access should miss")
	}
	if r := c.Access(3, autocat.DomainAttacker); !r.Hit {
		t.Fatal("warm access should hit")
	}
	if !c.Flush(3) {
		t.Fatal("flush should find the line")
	}
}

func TestFacadeEnvAndScriptedAgent(t *testing.T) {
	e, err := autocat.NewEnv(autocat.EnvConfig{
		Cache:      autocat.CacheConfig{NumBlocks: 4, NumWays: 1},
		AttackerLo: 4, AttackerHi: 7,
		VictimLo: 0, VictimHi: 3,
		WindowSize: 20,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := autocat.RunScripted(e, autocat.NewPrimeProbe(4), 50)
	if res.Accuracy < 0.99 {
		t.Fatalf("textbook prime+probe via facade: accuracy %.3f", res.Accuracy)
	}
}

func TestFacadeEnvValidation(t *testing.T) {
	if _, err := autocat.NewEnv(autocat.EnvConfig{
		Cache:      autocat.CacheConfig{NumBlocks: 3, NumWays: 2},
		AttackerLo: 0, AttackerHi: 1,
	}); err == nil {
		t.Fatal("invalid cache config must be rejected")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustEnv should panic on invalid config")
		}
	}()
	autocat.MustEnv(autocat.EnvConfig{Cache: autocat.CacheConfig{NumBlocks: 3, NumWays: 2}})
}

func TestFacadeClassify(t *testing.T) {
	e := autocat.MustEnv(autocat.EnvConfig{
		Cache:      autocat.CacheConfig{NumBlocks: 4, NumWays: 1},
		AttackerLo: 0, AttackerHi: 3,
		VictimLo: 0, VictimHi: 3,
		FlushEnable: true,
		WindowSize:  20,
		Seed:        2,
	})
	acts := []int{e.FlushAction(1), e.VictimAction(), e.AccessAction(1), e.GuessAction(1)}
	if got := autocat.Classify(e, acts); got != "flush+reload" {
		t.Fatalf("facade classify = %v", got)
	}
}

func TestFacadeCovertChannel(t *testing.T) {
	ch, err := autocat.NewStealthyStreamline(autocat.ChannelConfig{
		Ways: 8, SymbolBits: 2, Policy: autocat.LRU,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		if r := ch.Round(s); r.Decoded != s {
			t.Fatalf("decode %d != sent %d", r.Decoded, s)
		}
	}
	ms := autocat.CovertMachines()
	if len(ms) != 4 {
		t.Fatalf("expected 4 Table X machines, got %d", len(ms))
	}
	tr, err := autocat.MeasureCovert(ms[0], true, 2, 256, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.BitRateMbps <= 0 || tr.ErrorRate > 0.05 {
		t.Fatalf("transmission stats off: %+v", tr)
	}
}

func TestFacadeStateTrace(t *testing.T) {
	trace, err := autocat.StealthyStateTrace(autocat.ChannelConfig{Ways: 8, SymbolBits: 2, Policy: autocat.LRU}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 4 || !strings.HasPrefix(trace[0], "initial") {
		t.Fatalf("unexpected state trace: %v", trace)
	}
}

func TestFacadeDetectors(t *testing.T) {
	d := autocat.NewMissBased()
	d.Record(autocat.DetectorAccess{Dom: autocat.DomainVictim, Hit: false})
	if !d.Detected() {
		t.Fatal("victim miss should trip the detector")
	}
	cc := autocat.NewCCHunter()
	if cc.Detected() {
		t.Fatal("fresh CC-Hunter should be quiet")
	}
}

func TestFacadeSearch(t *testing.T) {
	e := autocat.MustEnv(autocat.EnvConfig{
		Cache:      autocat.CacheConfig{NumBlocks: 1, NumWays: 1},
		AttackerLo: 1, AttackerHi: 1,
		VictimLo: 0, VictimHi: 0,
		VictimNoAccess: true,
		WindowSize:     8,
		Warmup:         -1,
		Seed:           3,
	})
	res := autocat.RandomSearch(context.Background(), e, 3, 2000, 3)
	if !res.Found {
		t.Fatal("random search should find the tiny attack")
	}
	if m := autocat.ExpectedSearchTrials(8); m < 1.9e7 || m > 2.2e7 {
		t.Fatalf("ExpectedSearchTrials(8) = %g", m)
	}
}

func TestFacadeNetworksAndTrainer(t *testing.T) {
	e := autocat.MustEnv(autocat.EnvConfig{
		Cache:      autocat.CacheConfig{NumBlocks: 1, NumWays: 1},
		AttackerLo: 1, AttackerHi: 1,
		VictimLo: 0, VictimHi: 0,
		VictimNoAccess: true,
		WindowSize:     6,
		Warmup:         -1,
		Seed:           4,
	})
	net := autocat.NewMLP(autocat.MLPConfig{ObsDim: e.ObsDim(), Actions: e.NumActions(), Seed: 4})
	tr, err := autocat.NewTrainer(net, []*autocat.Env{e}, autocat.PPOConfig{StepsPerEpoch: 128, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st := tr.Epoch(1); st.Episodes == 0 {
		t.Fatal("trainer epoch collected nothing")
	}
	ep := autocat.ReplayGreedy(net, e)
	if len(ep.Actions) == 0 {
		t.Fatal("greedy replay produced no actions")
	}
	if st := autocat.Evaluate(net, e, 5); st.Episodes != 5 {
		t.Fatalf("evaluate episodes = %d", st.Episodes)
	}
}

func TestFacadeBlackBox(t *testing.T) {
	specs := autocat.Table3Specs()
	if len(specs) != 7 {
		t.Fatalf("Table III specs = %d", len(specs))
	}
	box, err := autocat.NewBlackBox(specs[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	if box.Access(0, autocat.DomainAttacker).Hit {
		t.Fatal("cold access should miss")
	}
}

func TestFacadeBenignSuite(t *testing.T) {
	suite := autocat.BenignSuite(2, autocat.BenignConfig{Length: 100, AddrSpace: 16, Seed: 6})
	if len(suite) != 2 || len(suite[0]) != 100 {
		t.Fatalf("benign suite shape wrong: %d traces", len(suite))
	}
}

func TestFacadeCampaign(t *testing.T) {
	spec := autocat.CampaignSpec{
		Name:           "facade",
		Caches:         []autocat.CacheConfig{{NumBlocks: 1, NumWays: 1}},
		Attackers:      []autocat.CampaignAddrRange{{Lo: 1, Hi: 1}},
		Victims:        []autocat.CampaignAddrRange{{Lo: 0, Hi: 0}},
		Seeds:          []int64{1, 2, 3},
		VictimNoAccess: true,
		WindowSize:     6,
	}
	// A stub runner keeps the facade test free of RL training.
	res, err := autocat.RunCampaign(context.Background(), spec, autocat.CampaignRunConfig{
		Workers: 2,
		Runner: func(ctx context.Context, job autocat.CampaignJob) autocat.CampaignJobResult {
			return autocat.CampaignJobResult{
				Sequence:  "1→v→1→g0",
				Canonical: "A0 V A0 G0",
				Category:  "prime+probe",
				Converged: true,
				Accuracy:  1,
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3 {
		t.Fatalf("completed = %d, want 3", res.Completed)
	}
	if res.Catalog.Len() != 1 {
		t.Fatalf("catalog entries = %d, want 1 (all jobs find the same attack)", res.Catalog.Len())
	}
	e := res.Catalog.Entries()[0]
	if e.Count != 3 || e.Category != "prime+probe" {
		t.Fatalf("catalog entry wrong: %+v", e)
	}
}

func TestFacadeCampaignRunnerPersistsArtifacts(t *testing.T) {
	store, err := autocat.OpenArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// The one-line game: the search backend solves it (A1 V A1) in
	// milliseconds, so the real runner stays cheap here.
	spec := autocat.CampaignSpec{
		Name:           "facade-runner",
		Caches:         []autocat.CacheConfig{{NumBlocks: 1, NumWays: 1}},
		Attackers:      []autocat.CampaignAddrRange{{Lo: 1, Hi: 1}},
		Victims:        []autocat.CampaignAddrRange{{Lo: 0, Hi: 0}},
		Explorers:      []string{autocat.CampaignExplorerSearch},
		VictimNoAccess: true,
		WindowSize:     8,
		Warmup:         -1,
	}
	res, err := autocat.RunCampaign(context.Background(), spec, autocat.CampaignRunConfig{
		Workers: 1,
		Runner: autocat.NewCampaignRunner(autocat.CampaignRunnerOptions{
			Artifacts: store,
			Search:    autocat.SearchBackendOptions{Budget: 500, MaxLen: 3},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(res.Jobs))
	}
	if jr := res.Jobs[0]; jr.Error != "" || jr.Sequence == "" || jr.ArtifactID == "" {
		t.Fatalf("search job left no artifact: %+v", jr)
	}
	reports, err := store.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || !reports[0].Match || reports[0].Artifact.ID != res.Jobs[0].ArtifactID {
		t.Fatalf("verify: %+v", reports)
	}
}
