// Package mem provides the flat, deterministic memory image shared by the
// IR interpreter and the machine simulator. The paper assumes a 100% cache
// hit rate (§5.3), so memory is modeled as a fixed-latency word store; the
// latency itself lives in the timing model, not here.
//
// Layout: globals are placed consecutively from GlobalBase; the stack
// occupies the top of the address space and grows down. All accesses move
// aligned 8-byte words.
package mem

import (
	"fmt"
	"math"

	"regconn/internal/ir"
)

// GlobalBase is the address of the first global data object.
const GlobalBase = 1 << 12

// DefaultSize is the default memory image size in bytes (16 MiB).
const DefaultSize = 1 << 24

// pageWords is the dirty-tracking granularity in words (64 KiB pages):
// coarse enough that the per-store bookkeeping is one byte write, fine
// enough that resetting a 16 MiB image whose program touched a few hundred
// KiB of globals and stack clears only those pages.
const pageWords = 1 << 13

// Memory is a byte-addressed, word-accessed memory image. Stores mark
// their page dirty so Reset can rezero in place at the cost of the pages
// actually written rather than the whole image (the per-run zeroing that
// DESIGN.md §10's profile found dominating short sweeps).
type Memory struct {
	words []int64
	dirty []bool // per pageWords-sized page: written since last Reset/New
}

// New returns a zeroed memory of the given size in bytes (rounded up to a
// word multiple).
func New(size int64) *Memory {
	n := (size + 7) / 8
	return &Memory{
		words: make([]int64, n),
		dirty: make([]bool, (n+pageWords-1)/pageWords),
	}
}

// Reset rezeroes the memory in place: every page written since the last
// New/Reset is cleared (and its dirty mark dropped), leaving the image
// bit-identical to a freshly allocated one of the same size.
func (m *Memory) Reset() {
	for p, d := range m.dirty {
		if !d {
			continue
		}
		lo := p * pageWords
		hi := lo + pageWords
		if hi > len(m.words) {
			hi = len(m.words)
		}
		clear(m.words[lo:hi])
		m.dirty[p] = false
	}
}

// Reinit makes the memory equivalent to New(size), reusing the backing
// arrays when the size is unchanged and reallocating otherwise.
func (m *Memory) Reinit(size int64) {
	if n := (size + 7) / 8; n != int64(len(m.words)) {
		*m = *New(size)
		return
	}
	m.Reset()
}

// Data returns the words of the global data section ending at end (see
// Layout.DataEnd), from GlobalBase: a view of the memory, not a copy.
func (m *Memory) Data(end int64) []int64 {
	return m.words[GlobalBase/8 : (end+7)/8]
}

// DataImageSize returns the smallest memory size, in whole 64 KiB pages,
// that holds a data section ending at end: the image of a program that
// keeps no stack in memory (the IR interpreter's).
func DataImageSize(end int64) int64 {
	const page = pageWords * 8
	return (end + page - 1) / page * page
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int64 { return int64(len(m.words)) * 8 }

// StackTop returns the initial stack pointer (just past the highest word).
func (m *Memory) StackTop() int64 { return m.Size() }

func (m *Memory) index(addr int64) int64 {
	if addr%8 != 0 {
		panic(&Fault{Addr: addr, Reason: "unaligned access"})
	}
	w := addr / 8
	if w < 0 || w >= int64(len(m.words)) {
		panic(&Fault{Addr: addr, Reason: "out of range"})
	}
	return w
}

// LoadI loads an integer word; StoreI stores one.
func (m *Memory) LoadI(addr int64) int64 { return m.words[m.index(addr)] }
func (m *Memory) StoreI(addr, v int64) {
	w := m.index(addr)
	m.words[w] = v
	m.dirty[w/pageWords] = true
}

// LoadF and StoreF view the word as a float64 bit pattern.
func (m *Memory) LoadF(addr int64) float64 { return math.Float64frombits(uint64(m.LoadI(addr))) }
func (m *Memory) StoreF(addr int64, v float64) {
	m.StoreI(addr, int64(math.Float64bits(v)))
}

// Fault is a memory access violation. The interpreter and simulator convert
// it into an execution error.
type Fault struct {
	Addr   int64
	Reason string
}

func (f *Fault) Error() string { return fmt.Sprintf("memory fault at %#x: %s", f.Addr, f.Reason) }

// Layout maps each global name to its assigned address.
type Layout map[string]int64

// ComputeLayout assigns consecutive addresses from GlobalBase to the
// program's globals.
func ComputeLayout(p *ir.Program) Layout {
	l := make(Layout, len(p.Globals))
	addr := int64(GlobalBase)
	for _, g := range p.Globals {
		l[g.Name] = addr
		addr += g.Size
	}
	return l
}

// DataEnd returns the first address past the global data section.
func (l Layout) DataEnd(p *ir.Program) int64 {
	end := int64(GlobalBase)
	for _, g := range p.Globals {
		if a := l[g.Name] + g.Size; a > end {
			end = a
		}
	}
	return end
}

// InitImage builds a fresh memory image of the given size with the
// program's globals initialized at their layout addresses.
func InitImage(p *ir.Program, l Layout, size int64) *Memory {
	return InitImageInto(nil, p, l, size)
}

// InitImageInto is InitImage over a reused memory: a nil m allocates
// fresh, otherwise m is rezeroed in place (Reinit) and the globals are
// rewritten. It is the arena path of the simulator — one run's image
// becomes the next run's, without reallocating or rezeroing untouched
// pages.
func InitImageInto(m *Memory, p *ir.Program, l Layout, size int64) *Memory {
	if m == nil {
		m = New(size)
	} else {
		m.Reinit(size)
	}
	for _, g := range p.Globals {
		base := l[g.Name]
		for i, v := range g.InitI {
			m.StoreI(base+int64(i)*8, v)
		}
		for i, v := range g.InitF {
			m.StoreF(base+int64(i)*8, v)
		}
	}
	return m
}
