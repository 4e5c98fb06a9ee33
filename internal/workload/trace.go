package workload

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"regconn/internal/codegen"
	"regconn/internal/ir"
	"regconn/internal/isa"
	"regconn/internal/machine"
	"regconn/internal/mem"
)

// The trace file format: a one-line header
//
//	rctrace <version> <payload-len> <payload-sha256-hex>\n
//
// followed by exactly payload-len bytes of JSON (the Trace struct). The
// checksum makes corruption and truncation detectable before anything is
// interpreted, and its hex form doubles as the trace's cache key — the
// same shape as the serve layer's point keys, so a replayed trace drops
// into the existing LRU/store/shard machinery unchanged.
const (
	traceMagic = "rctrace"

	// TraceVersion is the current trace format version. Decoding rejects
	// any other version: traces are snapshots, not a compatibility
	// surface, and a version bump means "re-emit".
	TraceVersion = 1

	// MaxTracePayload caps the declared payload length so a corrupt or
	// hostile header cannot drive a giant allocation.
	MaxTracePayload = 1 << 28
)

// ErrBadTrace marks a trace that failed structural validation: bad header,
// checksum mismatch, truncation, malformed JSON, or out-of-range code
// references. The serve layer maps it to a structured 4xx response.
var ErrBadTrace = errors.New("workload: bad trace")

// TraceGlobal is one global's layout and initial data — everything the
// simulator's memory-image initialization needs.
type TraceGlobal struct {
	Name  string    `json:"name"`
	Size  int64     `json:"size"`
	InitI []int64   `json:"init_i,omitempty"`
	InitF []float64 `json:"init_f,omitempty"`
}

// Trace is a replayable snapshot of a compiled workload: the linked
// machine code with its annotations, the exact simulator configuration,
// the globals' initial data, and the recorded outcome. Replay feeds the
// simulator directly — no IR pipeline, no compiler — and verifies the
// result against the recorded interpreter oracle (Expect, MemSum) and
// the recorded timing (Cycles, Instrs), so every replay is also a
// whole-simulator determinism check.
type Trace struct {
	Name string `json:"name"` // workload name the trace was recorded from

	// Arch is the canonical architecture JSON the trace was compiled for.
	// It identifies the point (reports, cache keys); replay does not
	// re-derive anything from it — Config is authoritative.
	Arch json.RawMessage `json:"arch"`

	// Config is the exact simulator configuration of the recorded run,
	// including backend-derived knobs (total register-file sizes, chain
	// forwarding, read-port caps, trap bookkeeping). Prof and Observer are
	// never serialized, so a decoded trace replays unobserved.
	Config machine.Config `json:"config"`

	Entry     string          `json:"entry"` // entry function name
	EntryPC   int             `json:"entry_pc"`
	Code      []isa.Instr     `json:"code"`
	Ann       []codegen.Annot `json:"ann"` // 1:1 with Code
	FuncStart map[string]int  `json:"func_start"`
	Globals   []TraceGlobal   `json:"globals"` // in layout order

	// Recorded outcome: the interpreter oracle's return value and data-
	// section digest, and the recorded simulation's cycle/instruction
	// counts. Replay re-verifies all four.
	Expect int64  `json:"expect"`
	MemSum string `json:"mem_sum"`
	Cycles int64  `json:"cycles"`
	Instrs int64  `json:"instrs"`
}

// DataDigest hashes the global data section — words from mem.GlobalBase up
// to end — into a hex digest. Recorded from the interpreter oracle's final
// memory at trace-write time and compared against the simulator's at
// replay.
func DataDigest(m *mem.Memory, end int64) string {
	h := sha256.New()
	var buf [8]byte
	for addr := int64(mem.GlobalBase); addr < end; addr += 8 {
		binary.LittleEndian.PutUint64(buf[:], uint64(m.LoadI(addr)))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Encode writes the trace to w and returns its key — the hex SHA-256 of
// the JSON payload, the same string the header carries and replay caching
// keys on.
func (t *Trace) Encode(w io.Writer) (key string, err error) {
	payload, err := json.Marshal(t)
	if err != nil {
		return "", fmt.Errorf("workload: encode trace: %w", err)
	}
	sum := sha256.Sum256(payload)
	key = fmt.Sprintf("%x", sum)
	if _, err := fmt.Fprintf(w, "%s %d %d %s\n", traceMagic, TraceVersion, len(payload), key); err != nil {
		return "", err
	}
	if _, err := w.Write(payload); err != nil {
		return "", err
	}
	return key, nil
}

// DecodeTrace reads and validates a trace: header shape, version, payload
// length bound, checksum, JSON, and the structural invariants replay
// relies on (Validate). All failures wrap ErrBadTrace; a valid file
// returns the trace and its key.
func DecodeTrace(r io.Reader) (*Trace, string, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, "", fmt.Errorf("%w: reading header: %v", ErrBadTrace, err)
	}
	var magic, key string
	var version, length int
	if n, err := fmt.Sscanf(header, "%s %d %d %s", &magic, &version, &length, &key); n != 4 || err != nil {
		return nil, "", fmt.Errorf("%w: malformed header %q", ErrBadTrace, header)
	}
	if magic != traceMagic {
		return nil, "", fmt.Errorf("%w: not a trace file (magic %q)", ErrBadTrace, magic)
	}
	if version != TraceVersion {
		return nil, "", fmt.Errorf("%w: version %d, this build reads %d", ErrBadTrace, version, TraceVersion)
	}
	if length <= 0 || length > MaxTracePayload {
		return nil, "", fmt.Errorf("%w: implausible payload length %d", ErrBadTrace, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, "", fmt.Errorf("%w: truncated payload: %v", ErrBadTrace, err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(payload)); sum != key {
		return nil, "", fmt.Errorf("%w: checksum mismatch (header %s, payload %s)", ErrBadTrace, key, sum)
	}
	var t Trace
	if err := json.Unmarshal(payload, &t); err != nil {
		return nil, "", fmt.Errorf("%w: payload: %v", ErrBadTrace, err)
	}
	if err := t.Validate(); err != nil {
		return nil, "", err
	}
	return &t, key, nil
}

// Validate checks the structural invariants replay relies on so that a
// hand-edited or corrupt-but-checksummed trace surfaces as a structured
// error rather than a simulator fault: non-empty code, annotations 1:1
// with it, entry and every branch/call target inside the code, sane
// globals, and a runnable configuration.
func (t *Trace) Validate() error {
	if len(t.Code) == 0 {
		return fmt.Errorf("%w: empty code", ErrBadTrace)
	}
	if len(t.Ann) != len(t.Code) {
		return fmt.Errorf("%w: %d annotations for %d instructions", ErrBadTrace, len(t.Ann), len(t.Code))
	}
	if t.EntryPC < 0 || t.EntryPC >= len(t.Code) {
		return fmt.Errorf("%w: entry pc %d outside code [0,%d)", ErrBadTrace, t.EntryPC, len(t.Code))
	}
	if t.Entry == "" {
		return fmt.Errorf("%w: empty entry name", ErrBadTrace)
	}
	for pc := range t.Code {
		in := &t.Code[pc]
		if in.Op == isa.BR || in.Op == isa.CALL || in.Op.IsCondBranch() {
			if in.Target < 0 || in.Target >= len(t.Code) {
				return fmt.Errorf("%w: pc %d: target %d outside code [0,%d)", ErrBadTrace, pc, in.Target, len(t.Code))
			}
		}
	}
	for _, g := range t.Globals {
		if g.Name == "" || g.Size < 0 {
			return fmt.Errorf("%w: global %q with size %d", ErrBadTrace, g.Name, g.Size)
		}
		if int64(len(g.InitI))*8 > g.Size || int64(len(g.InitF))*8 > g.Size {
			return fmt.Errorf("%w: global %q: initializer exceeds size %d", ErrBadTrace, g.Name, g.Size)
		}
	}
	if t.Config.IssueRate < 1 {
		return fmt.Errorf("%w: issue rate %d", ErrBadTrace, t.Config.IssueRate)
	}
	if t.Config.MemSize < 0 {
		return fmt.Errorf("%w: negative memory size %d", ErrBadTrace, t.Config.MemSize)
	}
	return nil
}

// image reconstructs the loaded machine image. The simulator needs the IR
// program only for the globals' initial data (mem.InitImageInto) and the
// entry name, so a minimal program carrying exactly the recorded globals —
// in recorded order, which makes mem.ComputeLayout reproduce the original
// layout; the code's absolute addresses were baked in at link time — is a
// faithful reconstruction.
func (t *Trace) image() *machine.Image {
	p := ir.NewProgram()
	for _, g := range t.Globals {
		ng := p.AddGlobal(g.Name, g.Size)
		ng.InitI = g.InitI
		ng.InitF = g.InitF
	}
	return &machine.Image{
		Code:      t.Code,
		Ann:       t.Ann,
		FuncStart: t.FuncStart,
		Entry:     t.EntryPC,
		Layout:    mem.ComputeLayout(p),
		Prog:      &codegen.MProg{Entry: t.Entry, IR: p},
	}
}

// Replay feeds the trace to the simulator — no IR pipeline, no compiler —
// and verifies the result against everything the trace recorded: the
// interpreter oracle's return value and memory digest, the recorded cycle
// and instruction counts (the determinism pin: one trace must produce one
// timing, bit-exact, forever), and the cycle-attribution ledger. The
// returned result is freshly allocated and safe to retain.
func (t *Trace) Replay(ctx context.Context) (*machine.Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	img := t.image()
	res, err := machine.RunContext(ctx, img, t.Config)
	if err != nil {
		return nil, fmt.Errorf("workload: replay %s: %w", t.Name, err)
	}
	if res.RetInt != t.Expect {
		return nil, fmt.Errorf("workload: replay %s: result %d, trace recorded %d", t.Name, res.RetInt, t.Expect)
	}
	if t.MemSum != "" {
		end := img.Layout.DataEnd(img.Prog.IR)
		if sum := DataDigest(res.Mem, end); sum != t.MemSum {
			return nil, fmt.Errorf("workload: replay %s: memory digest %s, trace recorded %s", t.Name, sum, t.MemSum)
		}
	}
	if t.Cycles != 0 && (res.Cycles != t.Cycles || res.Instrs != t.Instrs) {
		return nil, fmt.Errorf("workload: replay %s: %d cycles / %d instrs, trace recorded %d / %d (simulator nondeterminism or drift)",
			t.Name, res.Cycles, res.Instrs, t.Cycles, t.Instrs)
	}
	if err := res.CheckLedger(); err != nil {
		return nil, fmt.Errorf("workload: replay %s: %w", t.Name, err)
	}
	return res, nil
}
