package machine

// Per-PC cycle attribution (the rcprof collection layer). When
// Config.Prof is set, the machine attaches a PCProf Observer to each
// process, and Observe charges every cycle the aggregate ledger
// (Result.CheckLedger) accounts for to one static instruction:
//
//   - each issued instruction charges Instrs at its own PC, and the first
//     to issue in a cycle (slot 0) additionally charges IssueCycles (so
//     issue cycles are owned by the instruction that opened them);
//   - a zero-issue stall cycle charges StallData/StallMem/StallConn/
//     StallPorts at the PC of the instruction that failed to issue;
//   - a mispredict's front-end refill penalty (the issue event's Arg)
//     charges StallBranch at the mispredicted branch's PC;
//   - trap/context-switch overhead charges TrapOverhead at the PC that was
//     about to issue when the interrupt fired;
//   - the final HALT fetch charges Halt at the HALT's PC when nothing
//     issued in its cycle (slot 0).
//
// CheckAgainst proves the per-PC columns sum bit-exactly back to the
// ledger buckets, so attribution can never silently drift from the
// ledger's accounting (see DESIGN.md §10).

import (
	"errors"
	"fmt"
)

// PCProf is the per-static-instruction attribution of one simulation. All
// slices are indexed by absolute instruction address (Image.Code index).
type PCProf struct {
	Instrs       []int64 // dynamic instructions issued at this PC
	IssueCycles  []int64 // issue cycles opened by this PC (first issuer)
	StallData    []int64 // operand-not-ready stall cycles blocked here
	StallMem     []int64 // memory-channel stall cycles blocked here
	StallConn    []int64 // connect-interlock stall cycles blocked here
	StallPorts   []int64 // read-port stall cycles blocked here (portreduce)
	StallBranch  []int64 // mispredict penalty cycles caused by this branch
	TrapOverhead []int64 // interrupt overhead charged at the resume PC
	Halt         []int64 // final no-issue HALT fetch cycle
}

func newPCProf(n int) *PCProf {
	return &PCProf{
		Instrs:       make([]int64, n),
		IssueCycles:  make([]int64, n),
		StallData:    make([]int64, n),
		StallMem:     make([]int64, n),
		StallConn:    make([]int64, n),
		StallPorts:   make([]int64, n),
		StallBranch:  make([]int64, n),
		TrapOverhead: make([]int64, n),
		Halt:         make([]int64, n),
	}
}

// Begin and End are no-ops: the machine sizes the columns per process.
func (p *PCProf) Begin(int, []*Image) {}
func (p *PCProf) End(error) error     { return nil }

// Observe applies the charging rules above to one event.
func (p *PCProf) Observe(e Event) {
	switch e.Kind {
	case EvIssue:
		p.Instrs[e.PC]++
		if e.Slot == 0 {
			p.IssueCycles[e.PC]++
		}
		p.StallBranch[e.PC] += int64(e.Arg)
	case EvStall:
		cols := [...][]int64{stallData: p.StallData, stallMem: p.StallMem,
			stallConn: p.StallConn, stallPorts: p.StallPorts}
		if col := cols[e.Arg]; col != nil {
			col[e.PC]++
		}
	case EvTrap:
		p.TrapOverhead[e.PC] += e.Dur
	case EvHalt:
		if e.Slot == 0 {
			p.Halt[e.PC]++
		}
	}
}

// Len returns the number of static instructions covered.
func (p *PCProf) Len() int { return len(p.Instrs) }

// CyclesAt returns the total cycles attributed to one PC (every bucket the
// ledger partitions ActiveCycles into).
func (p *PCProf) CyclesAt(pc int) int64 {
	return p.IssueCycles[pc] + p.StallData[pc] + p.StallMem[pc] + p.StallConn[pc] +
		p.StallPorts[pc] + p.StallBranch[pc] + p.TrapOverhead[pc] + p.Halt[pc]
}

// sum totals one attribution column.
func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// CheckAgainst verifies that every per-PC attribution column sums exactly
// to its aggregate ledger bucket in r: issued instructions to the issue
// histogram's instruction count, issue cycles to the histogram's non-zero
// cycles, each stall column to its stall counter, branch penalties to
// StallBranch, trap overhead to TrapOverheads, and halt to HaltCycles.
// Together with Result.CheckLedger this proves per-PC attribution is a
// partition refinement of ActiveCycles.
func (p *PCProf) CheckAgainst(r *Result) error {
	if r.IssueHist == nil {
		return errors.New("machine: result has no issue histogram")
	}
	var histCycles, histInstrs int64
	for k, c := range r.IssueHist {
		if k > 0 {
			histCycles += c
		}
		histInstrs += int64(k) * c
	}
	checks := []struct {
		name      string
		col       []int64
		wantTotal int64
	}{
		{"instrs", p.Instrs, histInstrs},
		{"issue-cycles", p.IssueCycles, histCycles},
		{"stall-data", p.StallData, r.StallData},
		{"stall-mem", p.StallMem, r.StallMem},
		{"stall-connect", p.StallConn, r.StallConn},
		{"stall-ports", p.StallPorts, r.StallPorts},
		{"stall-branch", p.StallBranch, r.StallBranch},
		{"trap-overhead", p.TrapOverhead, r.TrapOverheads},
		{"halt", p.Halt, r.HaltCycles},
	}
	for _, c := range checks {
		if got := sum(c.col); got != c.wantTotal {
			return fmt.Errorf("machine: per-PC %s attribution sums to %d, ledger bucket has %d",
				c.name, got, c.wantTotal)
		}
	}
	return nil
}
