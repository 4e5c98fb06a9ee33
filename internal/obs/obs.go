// Package obs is the serving fleet's observability layer: request
// tracing, fixed-bucket metrics, and the shared Chrome trace-event
// writer. It is deliberately zero-dependency (stdlib only) and split
// along the same lines as the simulator's own instrumentation:
//
//   - trace.go: a Trace is the span tree of one request. Spans propagate
//     through context.Context, are safe to create from concurrent
//     goroutines (a sweep's points fan out), and carry a ledger-style
//     cross-check (Trace.Check) proving the tree is well-formed: spans
//     nest inside their parents and the tree accounts for the request's
//     wall time within tolerance — the service-level analogue of
//     machine.Result.CheckLedger.
//   - traceevent.go: the Chrome trace-event JSON document model, factored
//     out of machine.EventRing so the cycle-level pipeline trace and the
//     request-level span trace export through one writer and load in the
//     same viewers (chrome://tracing, ui.perfetto.dev).
//   - metrics.go: counters, gauges, and fixed-bucket histograms, usable
//     directly as expvar.Var values.
//
// Everything is nil-tolerant on the hot path: with tracing disabled a
// request carries no span, StartSpan returns its context unchanged, and
// every method on a nil *Span is a no-op — tracing off costs nothing,
// preserving the repo's zero-alloc steady-state gate.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"path/filepath"
)

// NewRequestID returns a fresh 16-hex-character request identifier, the
// value rcserve stamps into X-Request-ID and uses as the trace ID. IDs
// are random (crypto/rand), not sequential: replicas must be able to
// mint them independently without collisions.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a broken
		// entropy source should be loud, not produce colliding IDs.
		panic("obs: crypto/rand failed: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// ValidRequestID reports whether a client-supplied request ID is safe to
// adopt: non-empty, at most 64 bytes, and limited to [0-9A-Za-z._-]. The
// ID is echoed into headers, logs, and trace JSON, and — with -trace-dir
// set — becomes part of an on-disk filename, so anything that could act
// as a path separator or escape a directory (slashes, "..", backslashes)
// is rejected outright rather than sanitized.
func ValidRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	// Belt and braces: the ID must be a plain path element. With the
	// charset above this only excludes the dot-only names "." and "..".
	return id != "." && id != ".." && filepath.Base(id) == id
}
