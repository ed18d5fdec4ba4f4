package ipdsclient

import (
	"math/bits"
	"time"
)

// Log-linear bucketing: values below histSub nanoseconds get a bucket
// each; every power of two above that is split into histSub equal
// sub-buckets. A bucket spanning [lo, lo+w) has w <= lo/histSub, so
// its midpoint is within 1/(2*histSub) of any sample in it.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits // 32
	// One linear block for [0, 32), then one block per exponent
	// 5..62 (time.Duration is a non-negative int64 here).
	histBuckets = histSub + (63-histSubBits)*histSub
)

// LatencyHist is a fixed-size log-linear histogram of latency samples:
// 32 sub-buckets per power of two, and values under 32 ns kept exactly,
// so Quantile is within 1/64 of the exact sample it stands for. It
// holds 15 KiB whatever the number of samples, Add never allocates,
// and the zero value is empty and ready to use. Copy it by value.
type LatencyHist struct {
	n      uint64
	counts [histBuckets]uint64
}

// histIndex returns the bucket holding d (negative values count as 0).
func histIndex(d time.Duration) int {
	if d < histSub {
		return int(max(d, 0))
	}
	v := uint64(d)
	e := bits.Len64(v) - 1 // 2^e <= v < 2^(e+1), e >= histSubBits
	sub := int(v>>(e-histSubBits)) & (histSub - 1)
	return histSub + (e-histSubBits)*histSub + sub
}

// histMid returns the midpoint of bucket i, rounded down: the value
// itself below histSub.
func histMid(i int) time.Duration {
	if i < histSub {
		return time.Duration(i)
	}
	shift := (i - histSub) / histSub
	lo := (histSub + uint64(i%histSub)) << shift
	return time.Duration(lo + (1<<shift)/2)
}

// Add records one sample.
func (h *LatencyHist) Add(d time.Duration) {
	h.counts[histIndex(d)]++
	h.n++
}

// Merge adds every sample of o to h.
func (h *LatencyHist) Merge(o *LatencyHist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Count returns the number of samples recorded.
func (h *LatencyHist) Count() uint64 { return h.n }

// Quantile returns the q-th (0..1) quantile (0 when empty), ranked as
// Percentile ranks a sorted slice: the sample at index q*(n-1). It
// returns the midpoint of that sample's bucket, which is exact below
// 32 ns and within 1/64 of the sample above.
func (h *LatencyHist) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	rank := uint64(q * float64(h.n-1))
	var cum uint64
	for i, c := range h.counts {
		if cum += c; cum > rank {
			return histMid(i)
		}
	}
	return histMid(histBuckets - 1)
}
