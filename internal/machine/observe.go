package machine

// The simulator's one observation hook. The issue loop, execute (connects
// and map resets) and the multiprogramming scheduler (context switches)
// emit every pipeline event to a single Observer behind one nil check per
// site. The text trace (TextTrace), the Chrome timeline (EventRing) and the
// per-PC cycle attribution (PCProf) all implement it, so they read one
// stream and cannot disagree about what happened in a cycle.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"syscall"
)

// Observer receives the pipeline events of a run, in simulation order.
type Observer interface {
	// Begin opens a run on a machine of the given issue rate; imgs holds
	// one image per process, in process order.
	Begin(issueRate int, imgs []*Image)
	Observe(e Event)
	// End closes the run with its outcome. A non-nil return (a failed
	// flush) becomes the run's error if it had none.
	End(err error) error
}

// tee feeds one event stream to Config.Observer and the per-process PCProf
// of Config.Prof.
type tee [2]Observer

func (t tee) Begin(n int, imgs []*Image) { t[0].Begin(n, imgs); t[1].Begin(n, imgs) }
func (t tee) Observe(e Event)            { t[0].Observe(e); t[1].Observe(e) }
func (t tee) End(err error) error        { return errors.Join(t[0].End(err), t[1].End(err)) }

// endRun closes the observer's run; both run entry points defer it. A plain
// function of the error pointer rather than a closure, so the deferred call
// does not force the caller's error result onto the heap (the zero-
// allocation arena path runs through here on every Machine.RunContext).
func endRun(o Observer, errp *error) {
	if o == nil {
		return
	}
	if err := o.End(*errp); err != nil && *errp == nil {
		*errp = err
	}
}

// TextTrace is the Observer behind `rcrun -trace`: one line per cycle,
// listing the instructions issued (pc:disassembly, " | "-separated), a
// stall cycle's reason, or the final HALT after the instructions issued
// with it. A run that dies on a RuntimeError ends with a "!!" line naming
// the faulting instruction after those issued before it in its cycle.
// Output is buffered for the run, then flushed (and fsynced, for a file)
// so the tail survives a failed run; a flush error fails the run.
type TextTrace struct {
	bw    *bufio.Writer
	out   io.Writer
	limit int64 // trace cycles below limit only (0 = all)
	imgs  []*Image
	names [][]string // "pc:disassembly" per process and pc, built on first use
	buf   []byte
	at    int64 // cycle of the line being written, -1 when none is open
}

// NewTextTrace returns a text trace writing to w for the first cycles
// cycles of a run (0 = no limit).
func NewTextTrace(w io.Writer, cycles int64) *TextTrace {
	return &TextTrace{bw: bufio.NewWriterSize(w, 1<<16), out: w, limit: cycles}
}

func (t *TextTrace) Begin(_ int, imgs []*Image) {
	t.imgs, t.at = imgs, -1
	t.names = make([][]string, len(imgs))
	for i, img := range imgs {
		t.names[i] = make([]string, len(img.Code))
	}
}

func (t *TextTrace) Observe(e Event) {
	if t.limit > 0 && e.Cycle >= t.limit {
		return
	}
	switch e.Kind {
	case EvIssue:
		t.item(e.Cycle, e.Proc, e.PC)
	case EvStall: // always opens its own line: nothing issued in its cycle
		t.next(e.Cycle)
		t.bw.WriteString("(stall: ")
		t.bw.WriteString(stallNames[e.Arg])
		t.bw.WriteString(")\n")
		t.at = -1
	case EvHalt:
		t.next(e.Cycle)
		t.bw.WriteString("halt\n")
		t.at = -1
	}
}

// next positions the output for one more entry on cycle's line.
func (t *TextTrace) next(cycle int64) {
	if t.at == cycle {
		t.bw.WriteString(" | ")
		return
	}
	if t.at >= 0 {
		t.bw.WriteByte('\n')
	}
	t.buf = strconv.AppendInt(t.buf[:0], cycle, 10)
	t.bw.WriteString("        "[min(len(t.buf), 8):]) // right-aligned like %8d
	t.bw.Write(t.buf)
	t.bw.WriteString("  ")
	t.at = cycle
}

func (t *TextTrace) item(cycle int64, proc uint8, pc int32) {
	t.next(cycle)
	name := &t.names[proc][pc]
	if *name == "" {
		*name = fmt.Sprintf("%d:%s", pc, t.imgs[proc].Code[pc].String())
	}
	t.bw.WriteString(*name)
}

// End writes the fault tail, then flushes.
func (t *TextTrace) End(err error) error {
	var re *RuntimeError
	if errors.As(err, &re) && re.PC >= 0 && (t.limit == 0 || re.Cycle < t.limit) {
		if errors.Is(re, ErrCanceled) { // stopped between cycles: no instruction to name
			t.next(re.Cycle)
		} else {
			t.item(re.Cycle, re.Proc, int32(re.PC))
			t.bw.WriteString("  ")
		}
		fmt.Fprintf(t.bw, "!! %v", re)
	}
	if t.at >= 0 {
		t.bw.WriteByte('\n')
	}
	ferr := t.bw.Flush()
	if f, ok := t.out.(*os.File); ok {
		// Pipes, terminals, and /dev/null don't support fsync
		// (EINVAL/ENOTSUP); only real files need the durability.
		serr := f.Sync()
		if ferr == nil && !errors.Is(serr, syscall.EINVAL) && !errors.Is(serr, syscall.ENOTSUP) {
			ferr = serr
		}
	}
	if ferr != nil {
		return fmt.Errorf("machine: trace flush: %w", ferr)
	}
	return nil
}
