package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for even lengths); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// newRand returns a generator for one purpose of one benchmark seed. Every
// input the benchmark makes derives from (seed, purpose), so the same seed
// always gives the same inputs and two purposes never share a stream.
func newRand(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewPCG(uint64(seed), h.Sum64()))
}

// workloadSeeds returns n non-negative generator seeds for one purpose.
func workloadSeeds(seed int64, purpose string, n int) []int64 {
	r := newRand(seed, purpose)
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int64N(1 << 20)
	}
	return out
}

// resetPeakRSS collects garbage, returns freed memory to the OS and resets
// the kernel's peak resident-set counter (VmHWM), so a later peakRSSMiB
// reads the high-water mark of the window that starts here.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads VmHWM, the peak resident set since the last reset.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("read peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM line in /proc/self/status")
}

// totalAllocMiB returns the bytes allocated on the heap since the process
// started, in MiB.
func totalAllocMiB() float64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.TotalAlloc) / (1 << 20)
}

// withFailures returns the latencies of successful operations ok plus one
// latency for each of n failed ones. A failure counts as missing any
// latency limit: it is charged the larger of the window's length and the
// slowest success, a finite value the result line can carry.
func withFailures(ok []float64, n int, windowMS float64) []float64 {
	worst := windowMS
	for _, v := range ok {
		worst = max(worst, v)
	}
	out := append([]float64(nil), ok...)
	for ; n > 0; n-- {
		out = append(out, worst)
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
