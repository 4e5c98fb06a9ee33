package exp

import (
	"context"
	"fmt"
	"sync"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/flight"
	"regconn/internal/lru"
)

// frontCacheSize bounds a FrontCache in entries. One pass over every
// figure and ablation compiles about 114 distinct fronts (benchmark ×
// front key), so a Runner's cache compiles each of them exactly once; a
// long-running daemon keeps the most recently used ones.
const frontCacheSize = 128

// How FrontCache.Build obtained a front (the build span's front attr).
const (
	frontHit  = "hit"  // already cached
	frontMiss = "miss" // this call compiled it
	frontJoin = "join" // waited on another call's compilation
)

// FrontCache is a bounded LRU of compiled front ends (regconn.Front),
// keyed by benchmark name and the architecture's regconn.FrontKey: every
// architecture of a sweep that shares a key reuses one front and pays only
// regconn.Backend. Concurrent misses on one key share one compilation
// through a waiter-counted flight. Fronts are immutable, so one cached
// front serves concurrent builds. Safe for concurrent use; the zero value
// is ready.
type FrontCache struct {
	once    sync.Once
	fronts  *lru.Cache[*regconn.Front]
	flights *flight.Group[*regconn.Front]
}

func (c *FrontCache) init() {
	c.once.Do(func() {
		c.fronts = lru.New[*regconn.Front](frontCacheSize)
		c.flights = flight.NewGroup[*regconn.Front]()
	})
}

// Build compiles bm for arch: the front from the cache (compiled on a
// miss), the backend fresh. It returns the same executables and errors as
// regconn.Build, plus how the front was obtained (hit, miss or join).
func (c *FrontCache) Build(ctx context.Context, bm bench.Benchmark, arch regconn.Arch) (*regconn.Executable, string, error) {
	c.init()
	fk := arch.FrontKey()
	k := fmt.Sprintf("%s/%d/%t", bm.Name, fk.Unroll, fk.ExpandAccumulators)
	front, ok := c.fronts.Get(k)
	src := frontHit
	if !ok {
		var err error
		var joined, cached bool
		front, err, joined = c.flights.Do(ctx, k, func(context.Context) (*regconn.Front, error) {
			// A flight that completed between the lookup above and this
			// one has already cached the front.
			if f, ok := c.fronts.Get(k); ok {
				cached = true
				return f, nil
			}
			f, err := regconn.Frontend(bm.Build(), arch)
			if err == nil {
				// Cached before the flight completes, so a caller arriving
				// in between finds it instead of compiling again.
				c.fronts.Put(k, f)
			}
			return f, err
		})
		switch {
		case joined:
			src = frontJoin
		case err != nil || !cached: // err first: a canceled owner's flight may still be running
			src = frontMiss
		}
		if err != nil {
			return nil, src, err
		}
	}
	ex, err := regconn.Backend(front, arch)
	return ex, src, err
}

// Len reports the number of cached fronts.
func (c *FrontCache) Len() int {
	c.init()
	return c.fronts.Len()
}
