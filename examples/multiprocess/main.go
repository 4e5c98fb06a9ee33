// Multiprocess: makes paper §4.2 concrete. Three compiled programs
// time-share one physical register file. An RC-aware operating system
// (FullSave) context-switches core registers, extended registers, and the
// mapping table, and every process computes correctly; a pre-RC operating
// system (CoreOnlySave) switches only the core registers, and the
// RC-extended processes silently corrupt each other — the hazard the
// paper's process-status-word flag exists to prevent.
//
//	go run ./examples/multiprocess
package main

import (
	"fmt"
	"log"

	"regconn"
)

// buildWorker keeps `width` live values (pushed into extended registers on
// a small machine) while looping, then returns their sum times a tag.
func buildWorker(tag int64) *regconn.Program {
	p := regconn.NewProgram()
	g := p.AddGlobal("w", 16*8)
	vals := make([]int64, 16)
	for i := range vals {
		vals[i] = tag + int64(i)
	}
	g.InitI = vals
	b := regconn.NewFunc(p, "main", 0, 0)
	base := b.Addr(g, 0)
	var live []regconn.Reg
	for i := int64(0); i < 16; i++ {
		live = append(live, b.Ld(base, i*8))
	}
	i := b.Const(0)
	loop := b.NewBlock()
	b.Br(loop)
	b.SetBlock(loop)
	b.MovTo(i, b.AddI(i, 1))
	b.BltI(i, 400, loop)
	b.Continue()
	sum := b.Const(0)
	for _, v := range live {
		b.MovTo(sum, b.Add(sum, v))
	}
	b.Ret(sum)
	return p
}

func main() {
	arch := regconn.Arch{Issue: 4, LoadLatency: 2, IntCore: 8, FPCore: 16,
		Mode: regconn.WithRC, CombineConnects: true}
	var exes []*regconn.Executable
	var want []int64
	for _, tag := range []int64{1000, 5000, 9000} {
		ex, err := regconn.Build(buildWorker(tag), arch)
		if err != nil {
			log.Fatal(err)
		}
		exes = append(exes, ex)
		want = append(want, ex.Front.Ret)
	}

	fmt.Println("Three RC processes sharing one register file, 300-cycle quantum")
	fmt.Println()
	full, err := regconn.RunProcesses(exes, 300, regconn.FullSave)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RC-aware OS (full save, %d switches, %d overhead cycles):\n",
		full.Switches, full.SwitchCycles)
	okAll := true
	for i, r := range full.Results {
		ok := r.RetInt == want[i]
		okAll = okAll && ok
		fmt.Printf("  process %d: got %-6d want %-6d correct=%v\n", i, r.RetInt, want[i], ok)
	}
	fmt.Println()

	// Rebuild (images are single-use memory-wise) and run under a pre-RC OS.
	exes = exes[:0]
	for _, tag := range []int64{1000, 5000, 9000} {
		ex, err := regconn.Build(buildWorker(tag), arch)
		if err != nil {
			log.Fatal(err)
		}
		exes = append(exes, ex)
	}
	coreOnly, err := regconn.RunProcesses(exes, 300, regconn.CoreOnlySave)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pre-RC OS (core-only save): extended state leaks between processes")
	for i, r := range coreOnly.Results {
		fmt.Printf("  process %d: got %-6d want %-6d correct=%v\n",
			i, r.RetInt, want[i], r.RetInt == want[i])
	}
	fmt.Println()
	if okAll {
		fmt.Println("=> saving extended registers + connection state (paper §4.2) is what")
		fmt.Println("   makes RC processes safe to multiprogram.")
	}
}
