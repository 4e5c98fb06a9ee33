package serve

import (
	"expvar"
	"fmt"
	"time"

	"regconn"
	"regconn/internal/backend"
	"regconn/internal/lru"
	"regconn/internal/obs"
	"regconn/internal/store"
)

// metrics is the daemon's metric set: plain counters, one gauge and one
// fixed-bucket latency histogram over every answered point, all
// published into one flat expvar map — the single GET /metrics
// exposition, decodable as map[string]float64. The map is built once;
// Server.Metrics hands out the same *expvar.Map on every call, and its
// entries are the live values themselves, so a scrape only renders it.
//
// Nothing here is published to the process-global expvar registry — it
// panics on duplicate names and tests construct many servers per
// process. cmd/rcserve publishes the map once under "rcserve".
//
// The keys are documented in DESIGN.md §15's metric table;
// scripts/metricslint.sh cross-checks the Set calls below against that
// table in both directions.
type metrics struct {
	vars *expvar.Map

	requests         obs.Counter
	errors           obs.Counter // status >= 400, plus sweeps whose every point failed
	hits             obs.Counter
	misses           obs.Counter
	coalesced        obs.Counter
	inflight         obs.Gauge
	slowRequests     obs.Counter
	sweepPointErrors obs.Counter
	peerForwarded    obs.Counter
	peerFallback     obs.Counter
	storeErrors      obs.Counter
	latency          *obs.Histogram // seconds, every route (run, sweep, replay)

	health *peerHealth // nil when unsharded
}

// newMetrics builds the metric set and its map. cache and st (st may be
// nil) feed the render-time entries; peers are the fleet's other
// replicas, whose liveness keys exist from startup so a scrape sees a
// never-contacted peer as age -1 rather than as a missing key.
func newMetrics(cache *lru.Cache[[]byte], st *store.Store, peers []string) *metrics {
	m := &metrics{vars: new(expvar.Map).Init(), latency: obs.NewHistogram(nil)}
	v := m.vars
	v.Set("requests", &m.requests)
	v.Set("errors", &m.errors)
	v.Set("cache_hits", &m.hits)
	v.Set("cache_misses", &m.misses)
	v.Set("coalesced", &m.coalesced)
	v.Set("inflight", &m.inflight)
	v.Set("slow_requests", &m.slowRequests)
	v.Set("sweep_point_errors", &m.sweepPointErrors)
	v.Set("peer_forwarded", &m.peerForwarded)
	v.Set("peer_fallback", &m.peerFallback)
	v.Set("store_errors", &m.storeErrors)
	v.Set("cache_entries", intFunc(func() int64 { return int64(cache.Len()) }))
	v.Set("cache_evictions", intFunc(cache.Evicted))
	if st != nil {
		v.Set("store_entries", intFunc(func() int64 { return st.Stats().Entries }))
		v.Set("store_bytes", intFunc(func() int64 { return st.Stats().Bytes }))
		v.Set("store_hits", intFunc(func() int64 { return st.Stats().Hits }))
		v.Set("store_recovered", intFunc(func() int64 { return st.Stats().Recovered }))
	}
	v.Set("latency_p50_ms", floatFunc(func() float64 { return m.latency.Quantile(0.50) * 1000 }))
	v.Set("latency_p99_ms", floatFunc(func() float64 { return m.latency.Quantile(0.99) * 1000 }))
	if len(peers) > 0 {
		m.health = newPeerHealth()
	}
	// Peer liveness, one flat key per peer (age in seconds; -1 = never
	// happened).
	for _, p := range peers {
		peer := p
		v.Set("peer_ok_age_s;peer="+peer, floatFunc(func() float64 {
			ok, _ := m.health.last(peer)
			return age(time.Now(), ok)
		}))
		v.Set("peer_fail_age_s;peer="+peer, floatFunc(func() float64 {
			_, fail := m.health.last(peer)
			return age(time.Now(), fail)
		}))
	}
	return m
}

// observe records one answered point: its source counter and the
// latency histogram. Every route goes through resolve (run, sweep-local,
// sweep-fallback, replay), which is what makes the p50/p99 truthful for
// sweep-dominated traffic.
func (m *metrics) observe(src pointSource, d time.Duration) {
	switch src {
	case srcHit:
		m.hits.Inc()
	case srcCoalesced:
		m.coalesced.Inc()
	default:
		m.misses.Inc()
	}
	m.latency.Observe(d.Seconds())
}

func age(now, t time.Time) float64 {
	if t.IsZero() {
		return -1
	}
	return now.Sub(t).Seconds()
}

// backendLabel names the register architecture of a (canonicalized) Arch
// for the point span's backend attribute.
func backendLabel(arch regconn.Arch) string {
	if arch.Backend != "" {
		return arch.Backend
	}
	if be, err := backend.ByID(arch.Mode); err == nil {
		return be.Name()
	}
	return fmt.Sprintf("mode%d", arch.Mode)
}

// intFunc and floatFunc adapt live reads into expvar map entries.
func intFunc(f func() int64) expvar.Func     { return func() any { return f() } }
func floatFunc(f func() float64) expvar.Func { return func() any { return f() } }
