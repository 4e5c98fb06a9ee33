// Command rcbench measures simulator performance and writes a small JSON
// report for tracking figure-regeneration cost across changes.
//
// Usage:
//
//	rcbench [-o BENCH_sim.json] [-workers n] [-quick] [-gate]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// -cpuprofile / -memprofile write runtime/pprof profiles of the benchmark
// run for `go tool pprof` (see DESIGN.md §10).
//
// It times the two heaviest single figures (7 and 10) and the full
// experiment suite on fresh runners (no memoized results), and measures
// raw simulation throughput in machine instructions per second: the
// program is built once, then resimulated on a reused run arena, so the
// number reports the steady-state sweep cost (DESIGN.md §13), not
// compile+allocate cost. The same loop counts heap allocations, and the
// report records allocs per run and per simulated cycle — the arena
// contract says both are zero. -gate performs only that allocation
// measurement and exits nonzero if the steady state allocates (the
// `make verify` hook, see scripts/benchgate.sh). -quick uses the reduced
// three-benchmark suite for everything. The report also embeds the
// cycle-ledger statistics of the throughput benchmark at the paper's
// center configuration (stall breakdown, issue-slot histogram, map-table
// telemetry) so future changes can diff the attribution.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"regconn"
	"regconn/internal/cli"
	"regconn/internal/exp"
	"regconn/internal/machine"
)

type report struct {
	GoMaxProcs      int     `json:"gomaxprocs"`
	Workers         int     `json:"workers"`
	Quick           bool    `json:"quick_suite"`
	Fig7Ms          float64 `json:"fig7_ms"`
	Fig10Ms         float64 `json:"fig10_ms"`
	FullSuiteMs     float64 `json:"full_suite_ms"`
	SimInstrsPerSec float64 `json:"sim_instrs_per_sec"`

	// Steady-state allocation behavior of the warm-arena loop that
	// produced SimInstrsPerSec. The arena contract (DESIGN.md §13) pins
	// both at zero; scripts/benchgate.sh fails verify if they regress.
	AllocsPerRun       float64 `json:"allocs_per_run"`
	SteadyAllocsPerCyc float64 `json:"steady_allocs_per_cycle"`

	// CenterBench/CenterStats pin the cycle ledger of the throughput
	// benchmark at the center configuration.
	CenterBench string        `json:"center_bench"`
	CenterStats machine.Stats `json:"center_stats"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rcbench:", err)
		os.Exit(1)
	}
}

// run carries the whole benchmark so the profile-writing defers fire on
// every exit path — a fatal os.Exit in main would skip them and leave a
// truncated (unreadable) pprof file behind.
func run() (err error) {
	var (
		out        = flag.String("o", "BENCH_sim.json", "output JSON path (- for stdout)")
		workers    = flag.Int("workers", 0, "simulation worker pool size (0 = all CPUs)")
		quick      = flag.Bool("quick", false, "reduced three-benchmark suite")
		gate       = flag.Bool("gate", false, "only check the zero-alloc steady state; no report")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to FILE")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to FILE")
	)
	flag.Parse()

	stop, err := cli.StartCPUProfile(*cpuprofile)
	if err != nil {
		return err
	}
	defer stop()
	defer func() {
		if merr := cli.WriteMemProfile(*memprofile); merr != nil && err == nil {
			err = merr
		}
	}()

	newRunner := func() *exp.Runner {
		r := exp.NewRunner()
		if *quick {
			r = exp.NewQuickRunner()
		}
		r.Workers = *workers
		return r
	}

	if *gate {
		m, err := measureSteadyState(newRunner(), 8)
		if err != nil {
			return err
		}
		// Same tolerance as testing.AllocsPerRun's integer truncation:
		// sporadic sub-1/run runtime noise passes, a real per-run leak fails.
		if m.allocsPerRun >= 1 {
			return fmt.Errorf("steady-state arena run allocates: %.1f allocs/run (%.2g allocs/cycle), want 0",
				m.allocsPerRun, m.allocsPerCycle)
		}
		fmt.Printf("rcbench: steady state clean: 0 allocs/run over %d warm runs (%.2fM sim-instrs/s)\n",
			m.reps, m.instrsPerSec/1e6)
		return nil
	}
	timeIDs := func(ids ...string) (float64, error) {
		r := newRunner()
		start := time.Now()
		for _, id := range ids {
			if _, err := r.Generate(id); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Microseconds()) / 1000, nil
	}

	rep := report{GoMaxProcs: runtime.GOMAXPROCS(0), Workers: *workers, Quick: *quick}
	if rep.Fig7Ms, err = timeIDs("fig7"); err != nil {
		return err
	}
	if rep.Fig10Ms, err = timeIDs("fig10"); err != nil {
		return err
	}
	if rep.FullSuiteMs, err = timeIDs(exp.Experiments()...); err != nil {
		return err
	}

	// Raw simulation speed on one benchmark at the paper's center
	// configuration, the quantity that bounds full-suite experiment time:
	// build once, then resimulate on a warm arena (the sweep hot path).
	m, err := measureSteadyState(newRunner(), 40)
	if err != nil {
		return err
	}
	rep.SimInstrsPerSec = m.instrsPerSec
	rep.AllocsPerRun = m.allocsPerRun
	rep.SteadyAllocsPerCyc = m.allocsPerCycle
	rep.CenterBench = m.bench
	rep.CenterStats = m.stats

	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	js = append(js, '\n')
	if *out == "-" {
		_, err := os.Stdout.Write(js)
		return err
	}
	if err := os.WriteFile(*out, js, 0o644); err != nil {
		return err
	}
	fmt.Printf("rcbench: wrote %s (fig7 %.0fms, fig10 %.0fms, suite %.0fms, %.2fM sim-instrs/s, %.0f allocs/run)\n",
		*out, rep.Fig7Ms, rep.Fig10Ms, rep.FullSuiteMs, rep.SimInstrsPerSec/1e6, rep.AllocsPerRun)
	return nil
}

// steadyState is one warm-arena measurement: throughput and allocation
// counts over reps resimulations of a prebuilt executable.
type steadyState struct {
	bench          string
	reps           int
	instrsPerSec   float64
	allocsPerRun   float64
	allocsPerCycle float64
	stats          machine.Stats
}

// measureSteadyState builds the runner's first benchmark at the paper's
// center configuration, warms a run arena, then resimulates it reps times
// counting wall time and heap allocations (runtime.MemStats.Mallocs
// delta). The warm-up run pays the one-time arena growth so the counted
// reps see the steady state the arena contract promises: zero allocations.
func measureSteadyState(r *exp.Runner, reps int) (steadyState, error) {
	bm := r.Benchmarks[0]
	arch := regconn.Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32,
		Mode: regconn.WithRC, CombineConnects: true}
	ex, err := regconn.Build(bm.Build(), arch)
	if err != nil {
		return steadyState{}, err
	}
	arena := regconn.NewArena()
	res, err := arena.Run(ex)
	if err != nil {
		return steadyState{}, err
	}
	if err := res.CheckLedger(); err != nil {
		return steadyState{}, err
	}
	out := steadyState{bench: bm.Name, reps: reps, stats: res.Stats()}

	// As testing.AllocsPerRun does: keep the collector out of the measured
	// window so its own bookkeeping is not billed to the arena.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	total := int64(0)
	for i := 0; i < reps; i++ {
		res, err := arena.Run(ex)
		if err != nil {
			return steadyState{}, err
		}
		total += res.Instrs
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	out.instrsPerSec = float64(total) / elapsed.Seconds()
	out.allocsPerRun = float64(after.Mallocs-before.Mallocs) / float64(reps)
	if out.stats.Cycles > 0 {
		out.allocsPerCycle = out.allocsPerRun / float64(out.stats.Cycles)
	}
	return out, nil
}
