package exp

import (
	"context"
	"fmt"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/machine"
)

// LedgerConfig is one pinned benchmark architecture of the golden grid.
type LedgerConfig struct {
	Name string
	Arch regconn.Arch
}

// LedgerConfigs returns the four architectures pinned per benchmark by the
// golden file and the ledger invariant tests: the paper's center point
// (4-issue, 2-cycle loads, 16/32 cores, model-3 RC with combined
// connects), the spill-only and unlimited contrasts, and the
// 1-cycle-connect scenario that exercises the connect-latency interlock.
func LedgerConfigs(bm bench.Benchmark) []LedgerConfig {
	core := 16
	if bm.FP {
		core = 32
	}
	base := regconn.Arch{Issue: 4, LoadLatency: 2, CombineConnects: true, Verify: true}
	return []LedgerConfig{
		{"center-rc", sweepArch(bm, core, regconn.WithRC, base)},
		{"without-rc", sweepArch(bm, core, regconn.WithoutRC, base)},
		{"unlimited", regconn.Arch{Issue: 4, LoadLatency: 2, Mode: regconn.Unlimited, Verify: true}},
		{"rc-1cy-connect", archFor(bm, core, regconn.Arch{Issue: 4, LoadLatency: 2,
			Mode: regconn.WithRC, CombineConnects: true, ConnectLatency: 1, Verify: true})},
	}
}

// PointStats is the machine-readable statistics of one golden point.
type PointStats struct {
	Benchmark string        `json:"benchmark"`
	Config    string        `json:"config"`
	Stats     machine.Stats `json:"stats"`
}

// StatsReport simulates every golden benchmark×config point of the
// runner's suite and returns full cycle-ledger statistics per point —
// stall breakdown, issue-slot utilization histogram, and map-table
// telemetry — verifying the ledger invariant on each. It is the
// machine-readable counterpart of the golden file, fanned out across the
// runner's worker pool.
func (r *Runner) StatsReport() ([]PointStats, error) {
	return EachLedgerPoint(r, func(bm bench.Benchmark, lc LedgerConfig) (PointStats, error) {
		ex, _, err := r.fronts.Build(context.Background(), bm, lc.Arch)
		if err != nil {
			return PointStats{}, err
		}
		arena := arenas.Get().(*regconn.Arena)
		defer arenas.Put(arena)
		res, err := arena.Run(ex)
		if err == nil {
			err = res.CheckLedger()
		}
		if err != nil {
			return PointStats{}, err
		}
		return PointStats{Benchmark: bm.Name, Config: lc.Name, Stats: res.Stats()}, nil
	})
}

// EachLedgerPoint applies f to every golden benchmark×config point of the
// runner's suite across its worker pool and returns the results in grid
// order, or the first failing point's error (prefixed bench/config).
func EachLedgerPoint[T any](r *Runner, f func(bench.Benchmark, LedgerConfig) (T, error)) ([]T, error) {
	type job struct {
		bm bench.Benchmark
		lc LedgerConfig
	}
	var jobs []job
	for _, bm := range r.sortedBench() {
		for _, lc := range LedgerConfigs(bm) {
			jobs = append(jobs, job{bm, lc})
		}
	}
	out := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	r.ForAll(len(jobs), func(i int) {
		jb := jobs[i]
		if out[i], errs[i] = f(jb.bm, jb.lc); errs[i] != nil {
			errs[i] = fmt.Errorf("%s/%s: %w", jb.bm.Name, jb.lc.Name, errs[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
