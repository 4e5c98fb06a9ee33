package machine

import (
	"fmt"
	"math"

	"regconn/internal/isa"
)

// Execute stage: functional execution plus timing update, dispatched
// through a function table indexed by opcode instead of a monolithic
// switch. Operand reads go through the issue stage's cached resolutions
// (issue.go), so each operand is resolved through the mapping table once
// per cycle; writes commit through MapTable.NoteWrite, which applies the
// automatic-reset side effect of the configured model (§2.3).

type execFn func(s *simState, u *uop, cycle int64) (next int, mispredict bool, err error)

// execTab is sized for the whole opcode byte so corrupt opcodes dispatch
// to the nil entry (an error) rather than out of bounds.
var execTab [256]execFn

// execute performs the micro-op and returns the next pc and whether a
// branch mispredicted.
func (s *simState) execute(u *uop, cycle int64) (int, bool, error) {
	if fn := execTab[u.Op]; fn != nil {
		return fn(s, u, cycle)
	}
	return 0, false, fmt.Errorf("machine: cannot execute %v at pc=%d", u.Op, s.pc)
}

// srcI reads the integer register behind map index n; a read resolving to
// the zero register yields 0.
func (s *simState) srcI(n int) int64 {
	p := s.physReadI(n)
	if p == isa.RegZero {
		return 0
	}
	return s.ri[p]
}

// srcF reads the floating-point register behind map index n.
func (s *simState) srcF(n int) float64 { return s.rf[s.physReadF(n)] }

// src2 is the second integer source: immediate or the B register.
func (s *simState) src2(u *uop) int64 {
	if u.UseImm {
		return u.Imm
	}
	return s.srcI(u.B.N)
}

// setI commits an integer write through the destination map entry,
// applying the model's automatic reset; writes landing on the zero
// register are dropped.
func (s *simState) setI(u *uop, v int64, cycle int64) {
	p := s.tabI.NoteWrite(u.Dst.N)
	if p == isa.RegZero {
		return
	}
	s.ri[p] = v
	s.rdyI[p] = cycle + u.lat
}

// setF commits a floating-point write through the destination map entry.
func (s *simState) setF(u *uop, v float64, cycle int64) {
	p := s.tabF.NoteWrite(u.Dst.N)
	s.rf[p] = v
	s.rdyF[p] = cycle + u.lat
}

// aluOp builds the executor for a three-address integer op.
func aluOp(f func(a, b int64) int64) execFn {
	return func(s *simState, u *uop, cycle int64) (int, bool, error) {
		s.setI(u, f(s.srcI(u.A.N), s.src2(u)), cycle)
		return s.pc + 1, false, nil
	}
}

// fpOp builds the executor for a two-source floating-point op.
func fpOp(f func(a, b float64) float64) execFn {
	return func(s *simState, u *uop, cycle int64) (int, bool, error) {
		s.setF(u, f(s.srcF(u.A.N), s.srcF(u.B.N)), cycle)
		return s.pc + 1, false, nil
	}
}

// fpOp1 builds the executor for a single-source floating-point op.
func fpOp1(f func(a float64) float64) execFn {
	return func(s *simState, u *uop, cycle int64) (int, bool, error) {
		s.setF(u, f(s.srcF(u.A.N)), cycle)
		return s.pc + 1, false, nil
	}
}

func execNOP(s *simState, u *uop, cycle int64) (int, bool, error) {
	return s.pc + 1, false, nil
}

func execDIV(s *simState, u *uop, cycle int64) (int, bool, error) {
	d := s.src2(u)
	if d == 0 {
		return 0, false, fmt.Errorf("machine: divide by zero at pc=%d", s.pc)
	}
	s.setI(u, s.srcI(u.A.N)/d, cycle)
	return s.pc + 1, false, nil
}

func execREM(s *simState, u *uop, cycle int64) (int, bool, error) {
	d := s.src2(u)
	if d == 0 {
		return 0, false, fmt.Errorf("machine: rem by zero at pc=%d", s.pc)
	}
	s.setI(u, s.srcI(u.A.N)%d, cycle)
	return s.pc + 1, false, nil
}

func execMOV(s *simState, u *uop, cycle int64) (int, bool, error) {
	s.setI(u, s.srcI(u.A.N), cycle)
	return s.pc + 1, false, nil
}

func execMOVI(s *simState, u *uop, cycle int64) (int, bool, error) {
	s.setI(u, u.Imm, cycle)
	return s.pc + 1, false, nil
}

func execFMOVI(s *simState, u *uop, cycle int64) (int, bool, error) {
	s.setF(u, u.FI, cycle)
	return s.pc + 1, false, nil
}

func execLD(s *simState, u *uop, cycle int64) (int, bool, error) {
	s.setI(u, s.mem.LoadI(s.srcI(u.A.N)+u.Imm), cycle)
	return s.pc + 1, false, nil
}

func execST(s *simState, u *uop, cycle int64) (int, bool, error) {
	s.mem.StoreI(s.srcI(u.A.N)+u.Imm, s.srcI(u.B.N))
	return s.pc + 1, false, nil
}

func execFLD(s *simState, u *uop, cycle int64) (int, bool, error) {
	s.setF(u, s.mem.LoadF(s.srcI(u.A.N)+u.Imm), cycle)
	return s.pc + 1, false, nil
}

func execFST(s *simState, u *uop, cycle int64) (int, bool, error) {
	s.mem.StoreF(s.srcI(u.A.N)+u.Imm, s.srcF(u.B.N))
	return s.pc + 1, false, nil
}

func execCVTIF(s *simState, u *uop, cycle int64) (int, bool, error) {
	s.setF(u, float64(s.srcI(u.A.N)), cycle)
	return s.pc + 1, false, nil
}

func execCVTFI(s *simState, u *uop, cycle int64) (int, bool, error) {
	s.setI(u, int64(s.srcF(u.A.N)), cycle)
	return s.pc + 1, false, nil
}

func execBR(s *simState, u *uop, cycle int64) (int, bool, error) {
	return u.Target, false, nil
}

func execIntBranch(s *simState, u *uop, cycle int64) (int, bool, error) {
	taken := intTaken(u.Op, s.srcI(u.A.N), s.src2(u))
	next := s.pc + 1
	if taken {
		next = u.Target
	}
	return next, taken != u.Pred, nil
}

func execFPBranch(s *simState, u *uop, cycle int64) (int, bool, error) {
	taken := fpTaken(u.Op, s.srcF(u.A.N), s.srcF(u.B.N))
	next := s.pc + 1
	if taken {
		next = u.Target
	}
	return next, taken != u.Pred, nil
}

func execCALL(s *simState, u *uop, cycle int64) (int, bool, error) {
	sp := s.ri[isa.RegSP] - 8
	s.mem.StoreI(sp, int64(s.pc+1))
	s.ri[isa.RegSP] = sp
	s.tabI.Reset()
	s.tabF.Reset()
	if s.obs != nil {
		s.obs.Observe(Event{Kind: EvReset, Cycle: cycle, PC: int32(s.pc), Proc: s.proc})
	}
	return u.Target, false, nil
}

func execRET(s *simState, u *uop, cycle int64) (int, bool, error) {
	sp := s.ri[isa.RegSP]
	next := int(s.mem.LoadI(sp))
	s.ri[isa.RegSP] = sp + 8
	s.tabI.Reset()
	s.tabF.Reset()
	if s.obs != nil {
		s.obs.Observe(Event{Kind: EvReset, Cycle: cycle, PC: int32(s.pc), Proc: s.proc})
	}
	return next, false, nil
}

func execConnect(s *simState, u *uop, cycle int64) (int, bool, error) {
	tab, lc := s.tabI, s.lcI
	if u.CClass == isa.ClassFloat {
		tab, lc = s.tabF, s.lcF
	}
	for _, p := range u.Pairs() {
		if p.Def {
			tab.ConnectDef(int(p.Idx), int(p.Phys))
		} else {
			tab.ConnectUse(int(p.Idx), int(p.Phys))
		}
		lc[p.Idx] = cycle
	}
	if s.obs != nil {
		s.obs.Observe(Event{Kind: EvConnect, Cycle: cycle, PC: int32(s.pc), Proc: s.proc})
	}
	return s.pc + 1, false, nil
}

func init() {
	execTab[isa.NOP] = execNOP
	execTab[isa.ADD] = aluOp(func(a, b int64) int64 { return a + b })
	execTab[isa.SUB] = aluOp(func(a, b int64) int64 { return a - b })
	execTab[isa.MUL] = aluOp(func(a, b int64) int64 { return a * b })
	execTab[isa.AND] = aluOp(func(a, b int64) int64 { return a & b })
	execTab[isa.OR] = aluOp(func(a, b int64) int64 { return a | b })
	execTab[isa.XOR] = aluOp(func(a, b int64) int64 { return a ^ b })
	execTab[isa.SLL] = aluOp(func(a, b int64) int64 { return a << uint64(b&63) })
	execTab[isa.SRL] = aluOp(func(a, b int64) int64 { return int64(uint64(a) >> uint64(b&63)) })
	execTab[isa.SRA] = aluOp(func(a, b int64) int64 { return a >> uint64(b&63) })
	execTab[isa.SLT] = aluOp(func(a, b int64) int64 {
		if a < b {
			return 1
		}
		return 0
	})
	execTab[isa.MOV] = execMOV
	execTab[isa.DIV] = execDIV
	execTab[isa.REM] = execREM
	execTab[isa.MOVI] = execMOVI
	execTab[isa.LD] = execLD
	execTab[isa.ST] = execST
	execTab[isa.FLD] = execFLD
	execTab[isa.FST] = execFST
	execTab[isa.FADD] = fpOp(func(a, b float64) float64 { return a + b })
	execTab[isa.FSUB] = fpOp(func(a, b float64) float64 { return a - b })
	execTab[isa.FMUL] = fpOp(func(a, b float64) float64 { return a * b })
	execTab[isa.FDIV] = fpOp(func(a, b float64) float64 { return a / b })
	execTab[isa.FMOV] = fpOp1(func(a float64) float64 { return a })
	execTab[isa.FMOVI] = execFMOVI
	execTab[isa.FNEG] = fpOp1(func(a float64) float64 { return -a })
	execTab[isa.FABS] = fpOp1(math.Abs)
	execTab[isa.CVTIF] = execCVTIF
	execTab[isa.CVTFI] = execCVTFI
	execTab[isa.BR] = execBR
	for _, op := range []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BLE, isa.BGT, isa.BGE} {
		execTab[op] = execIntBranch
	}
	for _, op := range []isa.Op{isa.FBEQ, isa.FBNE, isa.FBLT, isa.FBLE} {
		execTab[op] = execFPBranch
	}
	execTab[isa.CALL] = execCALL
	execTab[isa.RET] = execRET
	for _, op := range []isa.Op{isa.CONUSE, isa.CONDEF, isa.CONUU, isa.CONDU, isa.CONDD} {
		execTab[op] = execConnect
	}
}

func intTaken(op isa.Op, a, b int64) bool {
	switch op {
	case isa.BEQ:
		return a == b
	case isa.BNE:
		return a != b
	case isa.BLT:
		return a < b
	case isa.BLE:
		return a <= b
	case isa.BGT:
		return a > b
	case isa.BGE:
		return a >= b
	}
	return false
}

func fpTaken(op isa.Op, a, b float64) bool {
	switch op {
	case isa.FBEQ:
		return a == b
	case isa.FBNE:
		return a != b
	case isa.FBLT:
		return a < b
	case isa.FBLE:
		return a <= b
	}
	return false
}
