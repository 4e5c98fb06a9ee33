// Command rcprof is the attribution profiler: it simulates a benchmark
// with per-PC cycle attribution enabled and reports where the cycles went
// — hottest static instructions, basic blocks, per-function stall tables,
// and connect overhead per virtual register — every number provably
// summing back to the run's cycle ledger (the cross-check runs before any
// report is printed).
//
// Usage:
//
//	rcprof -bench grep [-issue 4] [-load 2] [-channels 0] [-intcore 16]
//	       [-fpcore 32] [-mode rc|spill|unlimited|portreduce|chain] [-model 3]
//	       [-connect-latency 0] [-no-combine] [-scalar] [-top 20]
//	rcprof -bench grep -models              connect overhead across the 4 reset models
//	rcprof -bench grep -trace-json t.json   Chrome trace-event export (chrome://tracing);
//	                                        -event-cap N sizes the event ring (default 65536)
//	rcprof -grid [-workers n]               profile + cross-check the 48-point golden grid
//
// -grid sweeps every benchmark × ledger configuration of the golden grid
// with profiling on and fails loudly if any point's per-PC attribution
// does not sum bit-exactly to its ledger buckets (the `make prof` gate).
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/cli"
	"regconn/internal/core"
	"regconn/internal/exp"
	"regconn/internal/machine"
	"regconn/internal/prof"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rcprof:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		bmName    = flag.String("bench", "grep", "benchmark name")
		archOf    = cli.ArchFlags()
		top       = flag.Int("top", 20, "rows in the top-PC and top-block tables")
		models    = flag.Bool("models", false, "compare connect overhead across reset models 1..4")
		traceJSON = flag.String("trace-json", "", "write a Chrome trace-event JSON file and exit")
		eventCap  = flag.Int("event-cap", machine.DefaultEventCap, "event ring capacity for -trace-json")
		grid      = flag.Bool("grid", false, "cross-check attribution over the golden benchmark grid")
		quick     = flag.Bool("quick", false, "with -grid: reduced three-benchmark suite")
		workers   = flag.Int("workers", 0, "with -grid: worker pool size (0 = all CPUs)")
	)
	flag.Parse()

	if *grid {
		return runGrid(*quick, *workers)
	}

	bm, err := bench.ByName(*bmName)
	if err != nil {
		return err
	}
	arch, err := archOf()
	if err != nil {
		return err
	}

	if *models {
		return compareModels(bm, arch)
	}

	if *traceJSON != "" {
		ex, err := regconn.Build(bm.Build(), arch)
		if err != nil {
			return err
		}
		ring, err := cli.WriteEventTrace(ex, *traceJSON, *eventCap)
		if err != nil {
			return err
		}
		fmt.Printf("rcprof: wrote %s (%d events, %d dropped; open in chrome://tracing or ui.perfetto.dev)\n",
			*traceJSON, len(ring.Events()), ring.Dropped())
		return nil
	}

	p, err := profileRun(bm, arch)
	if err != nil {
		return err
	}
	fmt.Printf("benchmark %s, %s\n", bm.Name, arch.Mode)
	return p.WriteReport(os.Stdout, *top)
}

// compareModels profiles the benchmark under each of the four automatic-
// reset models and tabulates the connect overhead the profiler attributes
// to each — the per-model cost of the register-connection mechanism.
func compareModels(bm bench.Benchmark, arch regconn.Arch) error {
	arch.Mode = regconn.WithRC
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "model\tcycles\tconnects\tconnect-cycles\tconn-stall\toverhead\n")
	for m := core.NoReset; m <= core.ReadWriteReset; m++ {
		a := arch
		a.Model = m
		p, err := profileRun(bm, a)
		if err != nil {
			return fmt.Errorf("model %d: %w", m, err)
		}
		res, co := p.Res, p.ConnectOverhead()
		overhead := co.Cycles + res.StallConn
		fmt.Fprintf(tw, "%d (%v)\t%d\t%d\t%d\t%d\t%.1f%%\n",
			int(m), m, res.Cycles, res.Connects, co.Cycles, res.StallConn,
			100*float64(overhead)/float64(res.ActiveCycles))
	}
	return tw.Flush()
}

// runGrid profiles every golden benchmark×config point and verifies the
// per-PC attribution sums bit-exactly to the ledger buckets on each.
func runGrid(quick bool, workers int) error {
	r := exp.NewRunner()
	if quick {
		r = exp.NewQuickRunner()
	}
	r.Workers = workers
	lines, err := exp.EachLedgerPoint(r, func(bm bench.Benchmark, lc exp.LedgerConfig) (string, error) {
		p, err := profileRun(bm, lc.Arch)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("ok %-10s %-14s cycles=%-9d connects=%-7d connect-cycles=%d",
			bm.Name, lc.Name, p.Res.Cycles, p.Res.Connects, p.ConnectOverhead().Cycles), nil
	})
	if err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	fmt.Printf("rcprof: %d grid points profiled, every per-PC attribution sums to its ledger bucket\n", len(lines))
	return nil
}

// profileRun builds bm under arch with attribution on, verifies the run
// against the interpreter oracle, and cross-checks its per-PC attribution
// against the cycle ledger.
func profileRun(bm bench.Benchmark, arch regconn.Arch) (*prof.Profile, error) {
	arch.Profile = true
	ex, err := regconn.Build(bm.Build(), arch)
	if err != nil {
		return nil, err
	}
	res, err := ex.Verify()
	if err != nil {
		return nil, err
	}
	p, err := prof.New(ex.Image, res)
	if err != nil {
		return nil, err
	}
	if err := p.CrossCheck(); err != nil {
		return nil, fmt.Errorf("attribution does not match ledger: %w", err)
	}
	return p, nil
}
