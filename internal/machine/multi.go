package machine

import (
	"context"
	"fmt"

	"regconn/internal/core"
)

// Multiprogrammed execution (paper §4.2, made functional rather than a
// cost model): several processes time-share ONE physical register file and
// mapping table. At each quantum boundary the "operating system" saves the
// outgoing process's architectural state into its process control block
// and restores the incoming one's. FullSave preserves core registers,
// extended registers, and the connection state — the paper's requirement
// for RC-extended processes. CoreOnlySave models a pre-RC operating system
// that saves only the core registers: original-architecture binaries still
// run correctly, and RC-extended binaries are silently corrupted — exactly
// the hazard §4.2's process-status-word flag exists to prevent.

// SaveMode selects the context-switch strategy.
type SaveMode uint8

const (
	// FullSave switches core + extended registers + mapping-table state.
	FullSave SaveMode = iota
	// CoreOnlySave switches only the core registers (a pre-RC OS).
	CoreOnlySave
)

// pcb is one process's saved architectural state.
type pcb struct {
	ri   []int64
	rf   []float64
	ctxI core.Context
	ctxF core.Context
}

// MultiResult reports a multiprogrammed run.
type MultiResult struct {
	Results      []*Result // per process, in input order
	Switches     int64
	SwitchCycles int64 // total context-switch overhead charged
	Cycles       int64 // global cycles including switch overhead

	// MapInt, MapFP are telemetry snapshots of the shared mapping tables
	// (the per-process Results cannot carry them: all processes mutate the
	// same physical tables).
	MapInt, MapFP core.Stats
}

// CheckLedger verifies the global cycle ledger: the final clock equals
// each process's own active cycles plus the context-switch overhead, and
// every per-process ledger closes.
func (m *MultiResult) CheckLedger() error {
	var active int64
	for i, r := range m.Results {
		if r == nil {
			return fmt.Errorf("machine: process %d has no result", i)
		}
		if err := r.CheckLedger(); err != nil {
			return fmt.Errorf("process %d: %w", i, err)
		}
		active += r.ActiveCycles
	}
	if got := active + m.SwitchCycles; got != m.Cycles {
		return fmt.Errorf("machine: multiprogrammed ledger does not close: active %d + switch %d = %d, want %d cycles",
			active, m.SwitchCycles, got, m.Cycles)
	}
	return nil
}

// RunMultiprogrammed time-slices the images on one machine with the given
// quantum. Processes have private memories (separate address spaces) but
// share the physical register file and mapping table, so correctness
// depends on the OS's save mode. Each process runs on the same predecoded
// micro-op pipeline as Run.
func RunMultiprogrammed(imgs []*Image, cfg Config, quantum int64, mode SaveMode) (*MultiResult, error) {
	return RunMultiprogrammedContext(context.Background(), imgs, cfg, quantum, mode)
}

// RunMultiprogrammedContext is RunMultiprogrammed with cooperative
// cancellation: each process's cycle loop polls ctx on the same stride as
// RunContext. Each call constructs a private arena; to amortize it across
// runs, use Machine.RunMultiprogrammedContext.
func RunMultiprogrammedContext(ctx context.Context, imgs []*Image, cfg Config, quantum int64, mode SaveMode) (*MultiResult, error) {
	return NewMachine().RunMultiprogrammedContext(ctx, imgs, cfg, quantum, mode)
}

// runMultiprogrammed is the scheduler loop over an arena whose shared
// machine, per-process states, and PCBs RunMultiprogrammedContext has
// already reset.
func (m *Machine) runMultiprogrammed(imgs []*Image, cfg Config, quantum int64, mode SaveMode) (*MultiResult, error) {
	ri, rf, rdyI, rdyF := m.ri, m.rf, m.rdyI, m.rdyF
	tabI, tabF := m.tabI, m.tabF
	procs := m.procs[:len(imgs)]
	pcbs := m.pcbs[:len(imgs)]
	halted := m.halted

	saveWords := int64(cfg.IntCore + cfg.FPCore)
	if mode == FullSave {
		saveWords += int64(cfg.IntTotal - cfg.IntCore + cfg.FPTotal - cfg.FPCore)
		saveWords += int64(2*cfg.IntCore + 2*cfg.FPCore) // both maps
	}
	switchCost := 2 * ((saveWords + int64(cfg.MemChannels) - 1) / int64(cfg.MemChannels))

	save := func(i int) {
		p := pcbs[i]
		switch mode {
		case FullSave:
			copy(p.ri, ri)
			copy(p.rf, rf)
			tabI.SaveContextInto(&p.ctxI)
			tabF.SaveContextInto(&p.ctxF)
		case CoreOnlySave:
			copy(p.ri[:cfg.IntCore], ri[:cfg.IntCore])
			copy(p.rf[:cfg.FPCore], rf[:cfg.FPCore])
			// Connection state is neither saved nor restored.
		}
	}
	restore := func(i int, at int64) {
		p := pcbs[i]
		switch mode {
		case FullSave:
			copy(ri, p.ri)
			copy(rf, p.rf)
			tabI.RestoreContext(p.ctxI)
			tabF.RestoreContext(p.ctxF)
		case CoreOnlySave:
			copy(ri[:cfg.IntCore], p.ri[:cfg.IntCore])
			copy(rf[:cfg.FPCore], p.rf[:cfg.FPCore])
		}
		// The pipeline drains across a switch.
		for k := range rdyI {
			rdyI[k] = at
		}
		for k := range rdyF {
			rdyF[k] = at
		}
	}

	out := &MultiResult{Results: make([]*Result, len(imgs))}
	clock := int64(0)
	remaining := len(imgs)
	for remaining > 0 {
		progress := false
		for i, s := range procs {
			if halted[i] {
				continue
			}
			restore(i, clock)
			s.cycle = clock
			h, err := s.runUntil(clock + quantum)
			if err != nil {
				return nil, fmt.Errorf("process %d: %w", i, err)
			}
			clock = s.cycle
			if h {
				halted[i] = true
				remaining--
				s.res.RetInt = ri[2]
				out.Results[i] = s.res
			}
			if remaining == 0 {
				// The last process has halted: there is nothing to
				// switch to, so the OS performs no save and charges no
				// switch cost.
				break
			}
			save(i)
			out.Switches++
			out.SwitchCycles += switchCost
			if s.obs != nil {
				s.obs.Observe(Event{Kind: EvSwitch, Cycle: clock, Dur: switchCost, Proc: uint8(i)})
			}
			clock += switchCost
			progress = true
			if clock > cfg.MaxCycles {
				return nil, fmt.Errorf("%w (multiprogrammed)", ErrCycleLimit)
			}
		}
		if !progress {
			break
		}
	}
	out.Cycles = clock
	out.MapInt = tabI.Stats()
	out.MapFP = tabF.Stats()
	return out, nil
}
