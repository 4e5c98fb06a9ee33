// Command rcasm assembles a machine program (connect instructions
// included) and runs it on the simulator — the ISA extension without the
// compiler in the way.
//
// Usage:
//
//	rcasm prog.s [-intcore 8] [-fpcore 8] [-total 256] [-issue 4]
//	      [-model 3] [-dis]
//
// -dis prints the (re)disassembled program instead of running it.
package main

import (
	"flag"
	"fmt"
	"os"

	"regconn/internal/asm"
	"regconn/internal/cli"
	"regconn/internal/isa"
	"regconn/internal/machine"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rcasm:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		intCore = flag.Int("intcore", 8, "core integer registers")
		fpCore  = flag.Int("fpcore", 8, "core floating-point registers")
		total   = flag.Int("total", 256, "total physical registers per file")
		issue   = flag.Int("issue", 4, "issue rate")
		load    = flag.Int("load", 2, "load latency")
		model   = flag.Int("model", 3, "RC automatic-reset model 1..4")
		dis     = flag.Bool("dis", false, "disassemble instead of running")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: rcasm [flags] prog.s")
	}
	rcModel, err := cli.ParseModel(*model)
	if err != nil {
		return err
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return err
	}
	mp, err := asm.Assemble(string(src))
	if err != nil {
		return err
	}
	if *dis {
		fmt.Print(asm.Disassemble(mp))
		return nil
	}
	img, err := machine.Load(mp)
	if err != nil {
		return err
	}
	cfg := machine.Config{
		IssueRate:   *issue,
		MemChannels: 2,
		Lat:         isa.DefaultLatencies(*load),
		IntCore:     *intCore, IntTotal: *total,
		FPCore: *fpCore, FPTotal: *total,
		Model: rcModel,
	}
	res, err := machine.Run(img, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("r2       = %d\n", res.RetInt)
	fmt.Printf("cycles   = %d\n", res.Cycles)
	fmt.Printf("instrs   = %d (IPC %.2f)\n", res.Instrs, res.IPC())
	fmt.Printf("connects = %d\n", res.Connects)
	return nil
}
