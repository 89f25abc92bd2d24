package stats

import (
	"math"
	"time"
)

// Hist is a power-of-two-bucketed latency histogram over microseconds.
// Bucket i counts observations with ceil(log2(µs)) == i, so quantile
// estimates are exact to within a factor of two — plenty for p50 / p95 /
// p99 service-latency reporting without unbounded memory. Every tier's
// latency summary (gcserved, gcfleet, jobs, sweeps, elastic migration) is
// a prom.Summary over one Hist, so all of them report latency the same way.
//
// Hist is a plain value type with no internal locking; callers serialize
// access (prom.Summary guards it with its own mutex) and may copy it under
// that lock to read a consistent snapshot.
type Hist struct {
	buckets [48]int64
	count   int64
	sum     time.Duration
	max     time.Duration
}

// Observe records one latency sample.
func (h *Hist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := d.Microseconds()
	i := 0
	for us > 0 { // i = bits.Len64(us): bucket upper bound 2^i µs
		us >>= 1
		i++
	}
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Quantile returns an upper bound on the q-quantile in seconds.
func (h *Hist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range h.buckets {
		cum += n
		if cum >= rank {
			return math.Ldexp(1, i) / 1e6 // 2^i µs in seconds
		}
	}
	return h.max.Seconds()
}

// QuantileDuration returns an upper bound on the q-quantile as a Duration.
func (h *Hist) QuantileDuration(q float64) time.Duration {
	return time.Duration(h.Quantile(q) * float64(time.Second))
}

// Count returns the number of samples observed.
func (h *Hist) Count() int64 { return h.count }

// Sum returns the sum of all observed samples.
func (h *Hist) Sum() time.Duration { return h.sum }

// Max returns the largest observed sample.
func (h *Hist) Max() time.Duration { return h.max }
