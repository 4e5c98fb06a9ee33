// Package cli holds the flag-parsing helpers shared by the command-line
// tools. The library deliberately forgives a zero-value Arch (normalize
// fills in the paper defaults), but an explicit flag value that is out
// of range must be an error, not a silent substitution — `rcrun -model
// 9` used to run model 3 and exit 0.
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"regconn"
	"regconn/internal/backend"
	"regconn/internal/core"
	"regconn/internal/machine"
)

// ParseBackend maps a -mode flag value to a registered backend. The
// accepted-name set and the error message come from the backend registry,
// so a newly registered backend is accepted — and named in the error —
// without touching this package.
func ParseBackend(s string) (backend.Backend, error) {
	return backend.ByName(s)
}

// ParseMode maps a -mode flag value to the register mode. It accepts
// exactly the registry's names (ParseBackend) and returns the backend's ID
// for tools that carry the selection in Arch.Mode.
func ParseMode(s string) (regconn.RegMode, error) {
	be, err := ParseBackend(s)
	if err != nil {
		return 0, err
	}
	return be.ID(), nil
}

// ModeNames returns the registry's mode names for usage strings, in
// sorted order.
func ModeNames() []string {
	return backend.Names()
}

// ParseModel validates a -model flag value against the four automatic-
// reset models of the paper (§4.1).
func ParseModel(n int) (core.Model, error) {
	m := core.Model(n)
	if !m.Valid() {
		return 0, fmt.Errorf("invalid RC model %d (want 1..4)", n)
	}
	return m, nil
}

// ArchFlags registers the architecture flags rcrun and rcprof share and
// returns the function that builds the Arch from their parsed values,
// rejecting out-of-range -model and unknown -mode values.
func ArchFlags() func() (regconn.Arch, error) {
	var (
		issue    = flag.Int("issue", 4, "issue rate (1/2/4/8)")
		load     = flag.Int("load", 2, "load latency in cycles (2 or 4)")
		channels = flag.Int("channels", 0, "memory channels (0 = paper default)")
		intCore  = flag.Int("intcore", 16, "core integer registers")
		fpCore   = flag.Int("fpcore", 32, "core floating-point registers")
		mode     = flag.String("mode", "rc", "register backend: "+strings.Join(ModeNames(), ", "))
		model    = flag.Int("model", 3, "RC automatic-reset model 1..4")
		connLat  = flag.Int("connect-latency", 0, "connect latency (0 or 1)")
		noComb   = flag.Bool("no-combine", false, "disable combined connects")
		scalar   = flag.Bool("scalar", false, "scalar optimization only (no ILP)")
	)
	return func() (regconn.Arch, error) {
		m, err := ParseModel(*model)
		if err != nil {
			return regconn.Arch{}, err
		}
		a := regconn.Arch{Issue: *issue, MemChannels: *channels, LoadLatency: *load,
			IntCore: *intCore, FPCore: *fpCore, Model: m, ConnectLatency: *connLat,
			CombineConnects: !*noComb, ScalarOnly: *scalar}
		a.Mode, err = ParseMode(*mode)
		return a, err
	}
}

// WriteEventTrace runs the executable with an event ring of the given
// capacity (0 = machine.DefaultEventCap) and writes the ring to path as
// Chrome trace-event JSON — the -trace-json flag of rcrun and rcprof.
func WriteEventTrace(ex *regconn.Executable, path string, capacity int) (*machine.EventRing, error) {
	ring := machine.NewEventRing(capacity)
	if _, err := ex.RunObserved(context.Background(), ring); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	err = ring.WriteTraceJSON(f, ex.Image)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return ring, err
}

// StartCPUProfile begins a runtime/pprof CPU profile and returns the stop
// function (a no-op when path is empty): the -cpuprofile flag of rcexp
// and rcbench.
func StartCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteMemProfile dumps a post-GC heap profile (no-op when path is empty).
func WriteMemProfile(path string) error {
	if path == "" {
		return nil
	}
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return pprof.WriteHeapProfile(f)
}
