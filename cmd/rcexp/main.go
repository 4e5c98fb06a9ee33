// Command rcexp regenerates the paper's tables and figures.
//
// Usage:
//
//	rcexp [-exp table1|fig7|fig8|fig9|fig10|fig11|fig12|fig13|models|combined|scenarios|all]
//	      [-quick] [-bench name] [-workers n] [-stats] [-progress]
//	      [-profile p1,p2|all] [-seeds 0,1,2|0-9]
//	      [-cpuprofile FILE] [-memprofile FILE]
//
// -quick restricts the suite to three representative benchmarks; -bench
// restricts it to one — a paper benchmark ("grep") or a generated
// workload ("gen/connect-heavy/42"). -workers bounds the simulation
// worker pool (0 uses all CPUs, 1 disables parallelism); tables are
// identical at any setting. -profile and -seeds configure the scenarios
// experiment (generated workloads swept across every register backend):
// comma-separated profile names (or "all") and comma-separated seeds
// (ranges like 0-9 work); setting either implies -exp scenarios.
// Output is aligned ASCII, one table per figure (or per benchmark for the
// per-benchmark figures 8 and 9). -stats skips the tables and instead
// emits a JSON array of per-point cycle-ledger statistics (stall
// breakdown, issue-slot histogram, map-table telemetry) over the golden
// benchmark×config grid, verifying the ledger invariant on every point.
// -cpuprofile / -memprofile write runtime/pprof profiles of the sweep
// itself (the simulator's host cost, not simulated cycles) for `go tool
// pprof`; see DESIGN.md §10 for a profiling case study.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"regconn/internal/bench"
	"regconn/internal/cli"
	"regconn/internal/exp"
	"regconn/internal/workload"
)

// scenarioConfig parses the -profile and -seeds flags. Profiles are a
// comma-separated list validated against the registry ("" or "all" =
// every profile); seeds are comma-separated integers with inclusive
// ranges ("0,5,8-11").
func scenarioConfig(profile, seeds string) (exp.ScenarioConfig, error) {
	var cfg exp.ScenarioConfig
	if profile != "" && profile != "all" {
		for _, p := range strings.Split(profile, ",") {
			p = strings.TrimSpace(p)
			if _, err := workload.ProfileByName(p); err != nil {
				return cfg, err
			}
			cfg.Profiles = append(cfg.Profiles, p)
		}
	}
	if seeds != "" {
		for _, part := range strings.Split(seeds, ",") {
			part = strings.TrimSpace(part)
			if lo, hi, ok := strings.Cut(part, "-"); ok && lo != "" {
				a, err1 := strconv.ParseInt(lo, 10, 64)
				b, err2 := strconv.ParseInt(hi, 10, 64)
				if err1 != nil || err2 != nil || b < a {
					return cfg, fmt.Errorf("bad -seeds range %q", part)
				}
				if b-a >= 1<<16 {
					return cfg, fmt.Errorf("-seeds range %q too large", part)
				}
				for s := a; s <= b; s++ {
					cfg.Seeds = append(cfg.Seeds, s)
				}
				continue
			}
			s, err := strconv.ParseInt(part, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("bad -seeds entry %q", part)
			}
			cfg.Seeds = append(cfg.Seeds, s)
		}
	}
	return cfg, nil
}

func main() {
	var (
		expID      = flag.String("exp", "all", "experiment id or 'all'")
		quick      = flag.Bool("quick", false, "reduced three-benchmark suite")
		bmName     = flag.String("bench", "", "restrict to one benchmark")
		format     = flag.String("format", "text", "output format: text or csv")
		workers    = flag.Int("workers", 0, "simulation worker pool size (0 = all CPUs)")
		stats      = flag.Bool("stats", false, "emit per-point cycle-ledger statistics as JSON")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to FILE")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to FILE")
		progress   = flag.Bool("progress", false, "report warm-pass sweep progress on stderr")
		profile    = flag.String("profile", "", "scenario profiles, comma-separated or 'all' (implies -exp scenarios)")
		seeds      = flag.String("seeds", "", "scenario seeds, comma-separated with ranges, e.g. 0,1,2 or 0-9 (implies -exp scenarios)")
	)
	flag.Parse()

	if *format != "text" && *format != "csv" {
		fatal(fmt.Errorf("unknown -format %q (want text or csv)", *format))
	}
	scen, err := scenarioConfig(*profile, *seeds)
	if err != nil {
		fatal(err)
	}
	id := *expID
	if (*profile != "" || *seeds != "") && id == "all" {
		id = "scenarios"
	}
	stop, err := cli.StartCPUProfile(*cpuprofile)
	if err != nil {
		fatal(err)
	}
	err = run(id, *quick, *bmName, *format, *workers, *stats, *progress, scen)
	stop()
	if merr := cli.WriteMemProfile(*memprofile); merr != nil && err == nil {
		err = merr
	}
	if err != nil {
		fatal(err)
	}
}

func run(expID string, quick bool, bmName, format string, workers int, stats, progress bool, scen exp.ScenarioConfig) error {
	r := exp.NewRunner()
	if quick {
		r = exp.NewQuickRunner()
	}
	r.Workers = workers
	if bmName != "" {
		bm, err := workload.ByName(bmName)
		if err != nil {
			return err
		}
		r.Benchmarks = []bench.Benchmark{bm}
	}
	if progress {
		// The hook fires from worker goroutines; stderr writes are
		// atomic enough for a one-line-per-point progress feed.
		r.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "rcexp: %d/%d points\n", done, total)
		}
	}

	if stats {
		pts, err := r.StatsReport()
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(pts)
	}

	ids := []string{expID}
	if expID == "all" {
		ids = exp.Experiments()
	}
	for _, id := range ids {
		var tables []*exp.Table
		var err error
		if id == "scenarios" {
			// The scenarios experiment is the one with its own axes: the
			// -profile/-seeds configuration replaces the default sweep.
			var t *exp.Table
			t, err = r.Scenarios(scen)
			tables = []*exp.Table{t}
		} else {
			tables, err = r.Generate(id)
		}
		if err != nil {
			return err
		}
		for _, t := range tables {
			if format == "csv" {
				fmt.Printf("# %s — %s\n%s\n", t.ID, t.Title, t.CSV())
			} else {
				fmt.Println(t.Format())
			}
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rcexp:", err)
	os.Exit(1)
}
