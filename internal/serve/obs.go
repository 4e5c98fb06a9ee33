package serve

// Serve-side observability state: request tracing (retention ring +
// -trace-dir export + GET /debug/trace), structured request logs, the
// live sweep-progress table behind GET /v1/sweeps, and per-peer health
// timestamps feeding the liveness gauges. All of it is inert when the
// corresponding Config knobs are off: no trace, no spans, discard
// logger.

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"regconn/internal/obs"
)

// serveObs bundles the server's observability state.
type serveObs struct {
	trace    bool          // request tracing on
	traceDir string        // "" = in-memory retention only
	keep     int           // retained finished traces
	log      *slog.Logger  // never nil (discard by default)
	slow     time.Duration // slow-request log threshold

	mu     sync.Mutex
	traces []*obs.Trace // most recent last

	sweeps sweepTable
}

func newServeObs(cfg Config) *serveObs {
	o := &serveObs{
		trace:    cfg.Trace || cfg.TraceDir != "",
		traceDir: cfg.TraceDir,
		keep:     cfg.TraceKeep,
		log:      cfg.Logger,
		slow:     cfg.SlowThreshold,
	}
	if o.keep <= 0 {
		o.keep = 64
	}
	if o.log == nil {
		o.log = slog.New(slog.DiscardHandler)
	}
	if o.slow <= 0 {
		o.slow = 2 * time.Second
	}
	o.sweeps.keepDone = 8
	return o
}

// retain stores a finished trace in the retention ring and, with a
// trace dir configured, writes it out as <id>.trace.json (best effort:
// an unwritable directory costs the file, not the request).
func (o *serveObs) retain(tr *obs.Trace) {
	o.mu.Lock()
	o.traces = append(o.traces, tr)
	if len(o.traces) > o.keep {
		o.traces = o.traces[len(o.traces)-o.keep:]
	}
	o.mu.Unlock()
	if o.traceDir == "" {
		return
	}
	path := filepath.Join(o.traceDir, tr.ID()+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		o.log.Warn("trace write failed", "path", path, "err", err)
		return
	}
	defer f.Close()
	if err := obs.WriteTraces(f, tr); err != nil {
		o.log.Warn("trace write failed", "path", path, "err", err)
	}
}

// recent snapshots the retention ring, newest last; with id != "" only
// the matching trace.
func (o *serveObs) recent(id string) []*obs.Trace {
	o.mu.Lock()
	defer o.mu.Unlock()
	if id == "" {
		return append([]*obs.Trace(nil), o.traces...)
	}
	for _, tr := range o.traces {
		if tr.ID() == id {
			return []*obs.Trace{tr}
		}
	}
	return nil
}

// ridCtxKey carries the request ID through handler contexts so sub-sweep
// forwards can stamp it onto the peer request.
type ridCtxKey struct{}

// requestIDFrom returns the request's ID ("" outside a request).
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ridCtxKey{}).(string)
	return id
}

// writeJSON writes v as a JSON response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// ------------------------------------------------------------ peer health

// peerHealth records, per peer, when this replica last completed a fully
// successful forward and when one last failed — the liveness gauges'
// source ("cumulative forward counters cannot distinguish a peer that
// died an hour ago from one that was always dead").
type peerHealth struct {
	mu       sync.Mutex
	lastOK   map[string]time.Time
	lastFail map[string]time.Time
}

func newPeerHealth() *peerHealth {
	return &peerHealth{lastOK: map[string]time.Time{}, lastFail: map[string]time.Time{}}
}

func (h *peerHealth) markOK(peer string) {
	h.mu.Lock()
	h.lastOK[peer] = time.Now()
	h.mu.Unlock()
}

func (h *peerHealth) markFail(peer string) {
	h.mu.Lock()
	h.lastFail[peer] = time.Now()
	h.mu.Unlock()
}

// last returns the peer's timestamps (zero time = never).
func (h *peerHealth) last(peer string) (ok, fail time.Time) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastOK[peer], h.lastFail[peer]
}

// ---------------------------------------------------------- sweep table

// sweepTable tracks in-flight sweeps (plus a short tail of finished
// ones) for GET /v1/sweeps. Each sweep's progress is fed point-by-point
// from handleSweep's delivery loop.
type sweepTable struct {
	mu       sync.Mutex
	active   []*sweepStatus
	done     []*sweepStatus
	keepDone int
}

// sweepStatus is one sweep's live progress.
type sweepStatus struct {
	id    string
	start time.Time
	total int

	mu       sync.Mutex
	done     int
	errs     int
	finished bool
	elapsed  time.Duration
	peers    map[string]*peerProgress // owner ("local" or peer URL) → progress
}

type peerProgress struct {
	total int
	done  int
}

// register adds a sweep with its per-owner totals and returns its status
// handle.
func (t *sweepTable) register(id string, ownerOf []string) *sweepStatus {
	st := &sweepStatus{
		id: id, start: time.Now(), total: len(ownerOf),
		peers: map[string]*peerProgress{},
	}
	for _, o := range ownerOf {
		pp := st.peers[o]
		if pp == nil {
			pp = &peerProgress{}
			st.peers[o] = pp
		}
		pp.total++
	}
	t.mu.Lock()
	t.active = append(t.active, st)
	t.mu.Unlock()
	return st
}

// point records one delivered point for the given owner.
func (st *sweepStatus) point(owner string, failed bool) {
	st.mu.Lock()
	st.done++
	if failed {
		st.errs++
	}
	if pp := st.peers[owner]; pp != nil {
		pp.done++
	}
	st.mu.Unlock()
}

// finish moves the sweep from active to the done tail.
func (t *sweepTable) finish(st *sweepStatus) {
	st.mu.Lock()
	st.finished = true
	st.elapsed = time.Since(st.start)
	st.mu.Unlock()
	t.mu.Lock()
	for i, a := range t.active {
		if a == st {
			t.active = append(t.active[:i], t.active[i+1:]...)
			break
		}
	}
	t.done = append(t.done, st)
	if len(t.done) > t.keepDone {
		t.done = t.done[len(t.done)-t.keepDone:]
	}
	t.mu.Unlock()
}

// SweepView is one sweep's progress as served by GET /v1/sweeps (and
// consumed by cmd/rctop).
type SweepView struct {
	ID        string                   `json:"id"`
	Start     time.Time                `json:"start"`
	ElapsedMS int64                    `json:"elapsed_ms"`
	Total     int                      `json:"total"`
	Done      int                      `json:"done"`
	Errors    int                      `json:"errors"`
	Active    bool                     `json:"active"`
	Peers     map[string]SweepPeerView `json:"peers"`
}

// SweepPeerView is one owner's slice of a sweep (key "local" = points
// this replica computes itself).
type SweepPeerView struct {
	Total int `json:"total"`
	Done  int `json:"done"`
}

// SweepsResponse is the body of GET /v1/sweeps: active sweeps first
// (oldest first), then recently finished ones.
type SweepsResponse struct {
	Sweeps []SweepView `json:"sweeps"`
}

func (st *sweepStatus) view() SweepView {
	st.mu.Lock()
	defer st.mu.Unlock()
	v := SweepView{
		ID: st.id, Start: st.start, Total: st.total,
		Done: st.done, Errors: st.errs, Active: !st.finished,
		Peers: make(map[string]SweepPeerView, len(st.peers)),
	}
	if st.finished {
		v.ElapsedMS = st.elapsed.Milliseconds()
	} else {
		v.ElapsedMS = time.Since(st.start).Milliseconds()
	}
	for o, pp := range st.peers {
		v.Peers[o] = SweepPeerView{Total: pp.total, Done: pp.done}
	}
	return v
}

// views snapshots the table.
func (t *sweepTable) views() []SweepView {
	t.mu.Lock()
	snapshot := append(append([]*sweepStatus(nil), t.active...), t.done...)
	t.mu.Unlock()
	out := make([]SweepView, len(snapshot))
	for i, st := range snapshot {
		out[i] = st.view()
	}
	return out
}

// ------------------------------------------------------------- handlers

// handleSweeps serves the live sweep-progress table.
func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, SweepsResponse{Sweeps: s.obs.sweeps.views()})
}

// handleDebugTrace exports retained request traces as one Chrome
// trace-event document (404 when tracing is off; ?id= selects one
// request).
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if !s.obs.trace {
		writeError(w, http.StatusNotFound, errorBody{Error: "request tracing is disabled (start rcserve with -trace or -trace-dir)"})
		return
	}
	id := r.URL.Query().Get("id")
	traces := s.obs.recent(id)
	if id != "" && len(traces) == 0 {
		writeError(w, http.StatusNotFound, errorBody{Error: "no retained trace with id " + id})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteTraces(w, traces...)
}
