package exp

import (
	"fmt"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/isa"
	"regconn/internal/regalloc"
)

type benchLike = bench.Benchmark

// AblationPressure quantifies the paper's premise (§1): ILP optimization
// increases the register requirement. For each benchmark it reports the
// maximum number of simultaneously live virtual registers (of the
// benchmark's class) in main under scalar compilation and under ILP
// compilation for 2/4/8-issue targets.
func (r *Runner) AblationPressure() (*Table, error) {
	t := &Table{
		ID:    "pressure",
		Title: "Register demand (distinct registers allocated, benchmark's class) vs compilation level",
		Cols:  []string{"scalar", "ilp-2", "ilp-4", "ilp-8"},
		Notes: []string{"the paper's premise (§1): optimization and scheduling for wider issue raise the register requirement past small register files"},
	}
	for _, bm := range r.sortedBench() {
		var vals []float64
		for _, cfg := range []regconn.Arch{
			{Issue: 4, LoadLatency: 2, Mode: regconn.WithRC, CombineConnects: true, ScalarOnly: true, Verify: true},
			{Issue: 2, LoadLatency: 2, Mode: regconn.WithRC, CombineConnects: true, Verify: true},
			{Issue: 4, LoadLatency: 2, Mode: regconn.WithRC, CombineConnects: true, Verify: true},
			{Issue: 8, LoadLatency: 2, Mode: regconn.WithRC, CombineConnects: true, Verify: true},
		} {
			cfg = archFor(bm, 16, cfg)
			ex, err := regconn.Build(bm.Build(), cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", bm.Name, err)
			}
			demand := 0
			class := isa.ClassInt
			if bm.FP {
				class = isa.ClassFloat
			}
			for _, f := range ex.MProg.IR.Funcs {
				a := ex.Alloc.ByFunc[f]
				if a == nil {
					continue
				}
				regs := map[int]bool{}
				slots := map[int]bool{}
				for r, loc := range a.Loc {
					if r.Class != class {
						continue
					}
					switch loc.Kind {
					case regalloc.LocReg:
						regs[loc.N] = true
					case regalloc.LocSpill:
						slots[loc.N] = true
					}
				}
				if d := len(regs) + len(slots); d > demand {
					demand = d
				}
			}
			vals = append(vals, float64(demand))
		}
		t.AddRow(bm.Name, vals...)
	}
	return t, nil
}

// AblationAccum measures accumulator variable expansion (an IMPACT
// transformation): speedup with and without it, at the paper's pressured
// operating point (16/32 cores) and with ample registers (unlimited). The
// tradeoff — more ILP for reduction chains vs. more live partials — is why
// expansion is opt-in.
func (r *Runner) AblationAccum() (*Table, error) {
	t := &Table{
		ID:    "accum",
		Title: "Accumulator expansion: speedup off/on at 16/32 cores (RC) and unlimited, 8-issue",
		Cols:  []string{"rc/off", "rc/on", "unl/off", "unl/on"},
		Notes: []string{"expansion raises reduction ILP but also register pressure; profitable only with registers to spare"},
	}
	archsOf := func(bm benchLike) []regconn.Arch {
		core := core1632(bm)
		return []regconn.Arch{
			archFor(bm, core, regconn.Arch{Issue: 8, LoadLatency: 2, Mode: regconn.WithRC, CombineConnects: true}),
			archFor(bm, core, regconn.Arch{Issue: 8, LoadLatency: 2, Mode: regconn.WithRC, CombineConnects: true, ExpandAccumulators: true}),
			{Issue: 8, LoadLatency: 2, Mode: regconn.Unlimited},
			{Issue: 8, LoadLatency: 2, Mode: regconn.Unlimited, ExpandAccumulators: true},
		}
	}
	var pts []point
	for _, bm := range r.sortedBench() {
		for _, cfg := range archsOf(bm) {
			pts = append(pts, point{bm, cfg})
		}
	}
	r.warmSpeedups(pts)
	for _, bm := range r.sortedBench() {
		var vals []float64
		for _, cfg := range archsOf(bm) {
			s, err := r.Speedup(bm, cfg)
			if err != nil {
				return nil, err
			}
			vals = append(vals, s)
		}
		t.AddRow(bm.Name, vals...)
	}
	t.AddMeanRow()
	return t, nil
}

// AblationOS quantifies the operating-system costs discussed in paper
// §4.2–4.3: what share of cycles goes to context switching under the
// PSW-flag policy vs. a conservative OS, and to interrupt handlers using
// the map-enable flag vs. naive per-register map bookkeeping.
func (r *Runner) AblationOS() (*Table, error) {
	t := &Table{
		ID:    "os",
		Title: "OS overhead %: context switches every 10k cycles; interrupts every 2k cycles",
		Cols:  []string{"sw/orig", "sw/rc", "sw/noflag", "trap/flag", "trap/naive"},
		Notes: []string{
			"sw/orig: original-architecture process, PSW flag on (core registers only, §4.2)",
			"sw/rc: RC process (core + extended + map state)",
			"sw/noflag: original-architecture process, conservative OS without the PSW flag",
			"trap/flag: handler uses the register-map enable bit (§4.3)",
			"trap/naive: handler saves/connects/restores a map entry per register",
		},
	}
	overheadPct := func(bm benchLike, arch regconn.Arch) (float64, error) {
		arch.Verify = true
		ex, err := regconn.Build(bm.Build(), arch)
		if err != nil {
			return 0, err
		}
		res, err := ex.Verify()
		if err != nil {
			return 0, err
		}
		if res.Traps == 0 {
			return 0, fmt.Errorf("%s: no traps fired", bm.Name)
		}
		return 100 * float64(res.TrapOverheads) / float64(res.Cycles), nil
	}
	archsOf := func(bm benchLike) []regconn.Arch {
		core := core1632(bm)
		rcArch := archFor(bm, core, regconn.Arch{Issue: 4, LoadLatency: 2,
			Mode: regconn.WithRC, CombineConnects: true})
		origArch := archFor(bm, core, regconn.Arch{Issue: 4, LoadLatency: 2,
			Mode: regconn.WithoutRC})

		mkSwitch := func(base regconn.Arch, pswFlag bool) regconn.Arch {
			base.Trap = regconn.TrapConfig{Interval: 10000, ContextSwitch: true, PSWFlag: pswFlag}
			return base
		}
		mkTrap := func(base regconn.Arch, flag bool) regconn.Arch {
			base.Trap = regconn.TrapConfig{Interval: 2000, HandlerCycles: 30,
				HandlerRegs: 8, UseEnableFlag: flag}
			return base
		}
		return []regconn.Arch{
			mkSwitch(origArch, true),
			mkSwitch(rcArch, true),
			mkSwitch(origArch, false),
			mkTrap(rcArch, true),
			mkTrap(rcArch, false),
		}
	}

	// These points carry trap configs the memo cache never sees elsewhere,
	// so fan the bm×arch grid out directly rather than through warm.
	bms := r.sortedBench()
	type job struct{ i, j int }
	var jobs []job
	vals := make([][]float64, len(bms))
	errs := make([][]error, len(bms))
	for i, bm := range bms {
		n := len(archsOf(bm))
		vals[i] = make([]float64, n)
		errs[i] = make([]error, n)
		for j := 0; j < n; j++ {
			jobs = append(jobs, job{i, j})
		}
	}
	r.ForAll(len(jobs), func(k int) {
		jb := jobs[k]
		bm := bms[jb.i]
		vals[jb.i][jb.j], errs[jb.i][jb.j] = overheadPct(bm, archsOf(bm)[jb.j])
	})
	for i, bm := range bms {
		for _, err := range errs[i] {
			if err != nil {
				return nil, err
			}
		}
		t.AddRow(bm.Name, vals[i]...)
	}
	return t, nil
}
