package obs

import (
	"math/bits"
	"sync"
	"time"
)

// histBuckets: 16 exact buckets under 16ns, then 16 linear sub-buckets
// per power of two up to ~2^62ns. Quantile error is bounded by one
// sub-bucket (≈6%) at a fixed 8KB per histogram, so long runs can
// record millions of samples without growing.
const histBuckets = 16 * 60

// Hist is a fixed-size log-linear latency histogram, safe for
// concurrent Add. It began life in the load harness and moved here so
// the server's in-process metrics and the harness's client-side
// measurements share one definition of a latency distribution.
type Hist struct {
	mu     sync.Mutex
	counts [histBuckets]int64
	n      int64
	max    int64
	sum    int64
}

func bucketOf(ns int64) int {
	if ns < 16 {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1        // 2^e ≤ ns < 2^(e+1), e ≥ 4
	sub := int((ns >> (uint(e) - 4)) & 15) // next 4 bits below the top one
	idx := 16*(e-3) + sub
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketMax is the largest value the bucket holds — quantiles report
// it, erring high (never flattering a latency gate).
func bucketMax(idx int) int64 {
	if idx < 16 {
		return int64(idx)
	}
	e := idx/16 + 3
	sub := int64(idx % 16)
	lo := (16 + sub) << (uint(e) - 4)
	return lo + (1 << (uint(e) - 4)) - 1
}

// Add records one duration.
func (h *Hist) Add(d time.Duration) {
	ns := d.Nanoseconds()
	idx := bucketOf(ns)
	h.mu.Lock()
	h.counts[idx]++
	h.n++
	if ns > h.max {
		h.max = ns
	}
	if ns > 0 {
		h.sum += ns
	}
	h.mu.Unlock()
}

// N is the sample count.
func (h *Hist) N() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum is the total of all recorded durations in nanoseconds (negative
// samples — clock weirdness — count as zero).
func (h *Hist) Sum() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns the p-quantile (p in [0,1]) as a duration, rounded
// up to its bucket's upper bound; the exact recorded maximum at p=1.
// Zero samples yield zero.
func (h *Hist) Quantile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	if p >= 1 {
		return time.Duration(h.max)
	}
	if p < 0 {
		p = 0
	}
	rank := int64(p*float64(h.n-1)) + 1
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if ns := bucketMax(i); ns < h.max {
				return time.Duration(ns)
			}
			return time.Duration(h.max)
		}
	}
	return time.Duration(h.max)
}
