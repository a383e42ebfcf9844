// Command autocat-bench regenerates the paper's tables and figures and
// measures the layer rows of BENCH_hotpath.json (end-to-end numbers are
// measured by benchmark/).
//
// Usage:
//
//	autocat-bench -all                      run everything at full scale
//	autocat-bench -table 5 -runs 3          one table, three training runs
//	autocat-bench -figure 4                 one figure
//	autocat-bench -all -scale 0.5           reduced training budgets
//	autocat-bench -shaping                  shaped vs plain PPO to the first
//	                                        reliable attack
//	autocat-bench -json                     measure the layer rows and write
//	                                        BENCH_hotpath.json
//	autocat-bench -compare BENCH_hotpath.json
//	                                        re-measure and exit non-zero on
//	                                        regression beyond -tolerance
//	autocat-bench -json -cpuprofile cpu.pb  profile any mode with pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"autocat/internal/exp"
	"autocat/internal/nn"
	"autocat/internal/obs"
)

func main() {
	table := flag.Int("table", 0, "table number to regenerate (3-10)")
	figure := flag.Int("figure", 0, "figure number to regenerate (3-5)")
	defenses := flag.Bool("defenses", false, "regenerate the defense-bypass table (agent vs ceaser/skew/partition)")
	escalation := flag.Bool("escalation", false, "run the Table IV grid through staged search→RL escalation")
	shaping := flag.Bool("shaping", false, "compare shaped vs plain PPO steps/wall-clock to first reliable attack on the narrow scenario suite")
	all := flag.Bool("all", false, "regenerate every table and figure")
	scale := flag.Float64("scale", 1.0, "training budget scale (1.0 = full)")
	runs := flag.Int("runs", 1, "training replicates for averaged tables")
	seed := flag.Int64("seed", 1, "base random seed")
	jsonOut := flag.Bool("json", false, "measure the layer rows (ns/op, allocs/op, layer throughput) and write "+hotpathFile)
	jsonPath := flag.String("json-out", hotpathFile, "output path for -json")
	compare := flag.String("compare", "", "re-measure the layer rows and compare against the given BENCH_hotpath.json; exits non-zero on regression")
	tolerance := flag.Float64("tolerance", 0.15, "fractional regression tolerated by -compare (allocs/op are gated strictly)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected mode to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	debugAddr := flag.String("debug-addr", "", "serve a live JSON metrics snapshot at /metrics and pprof at /debug/pprof on this address (empty disables)")
	flag.Parse()
	// Layer numbers depend on the dense kernels that ran; say which.
	fmt.Printf("autocat-bench: nn kernels %s\n", nn.KernelTier())

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *debugAddr != "" {
		ds, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			fail(err)
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "debug endpoint: http://%s/metrics (pprof under /debug/pprof/)\n", ds.Addr())
	}
	// finish flushes the profiles; it must run before any os.Exit, so the
	// error paths call it explicitly instead of relying on defers.
	finish := func() {
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
	}

	if *compare != "" {
		err := runCompare(*compare, *tolerance)
		finish()
		if err != nil {
			fail(err)
		}
		return
	}
	if *jsonOut {
		err := runHotpath(*jsonPath)
		finish()
		if err != nil {
			fail(err)
		}
		return
	}
	defer finish()

	o := exp.Options{W: os.Stdout, Scale: *scale, Runs: *runs, Seed: *seed}
	run := func(name string, f func(exp.Options)) {
		fmt.Printf("==== %s ====\n", name)
		f(o)
		fmt.Println()
	}

	if *all {
		run("Table III", exp.TableIII)
		run("Table IV", exp.TableIV)
		run("Table V", exp.TableV)
		run("Table VI", exp.TableVI)
		run("Table VII", exp.TableVII)
		run("Table VIII (+ Figure 3)", exp.TableVIII)
		run("Table IX", exp.TableIX)
		run("Table X", exp.TableX)
		run("Defense bypass", exp.TableDefenses)
		run("Staged escalation", exp.TableEscalation)
		run("Reward shaping", exp.TableShaping)
		run("Figure 4", exp.Figure4)
		run("Figure 5", exp.Figure5)
		run("Search vs RL (§VI-A)", exp.SearchVsRL)
		return
	}
	if *defenses {
		run("Defense bypass", exp.TableDefenses)
		return
	}
	if *escalation {
		run("Staged escalation", exp.TableEscalation)
		return
	}
	if *shaping {
		run("Reward shaping", exp.TableShaping)
		return
	}
	switch *table {
	case 3:
		run("Table III", exp.TableIII)
	case 4:
		run("Table IV", exp.TableIV)
	case 5:
		run("Table V", exp.TableV)
	case 6:
		run("Table VI", exp.TableVI)
	case 7:
		run("Table VII", exp.TableVII)
	case 8:
		run("Table VIII (+ Figure 3)", exp.TableVIII)
	case 9:
		run("Table IX", exp.TableIX)
	case 10:
		run("Table X", exp.TableX)
	}
	switch *figure {
	case 3:
		run("Figure 3", exp.Figure3)
	case 4:
		run("Figure 4", exp.Figure4)
	case 5:
		run("Figure 5", exp.Figure5)
	}
	if *table == 0 && *figure == 0 {
		fmt.Fprintln(os.Stderr, "nothing selected; use -all, -table N, or -figure N")
		os.Exit(2)
	}
}
