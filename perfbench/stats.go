package main

import (
	"fmt"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above the reported tail
// percentile: fewer would make the tail a single outlier's value.
const tailBeyond = 10

// latencySummary is the timing summary of one window's ops.
type latencySummary struct {
	P50    float64 // median, ms
	Tail   float64 // value at the tail percentile, ms
	TailP  float64 // the tail percentile, in percent
	Beyond int     // samples strictly beyond the tail sample
	N      int
}

// summarize returns the median and the tail of the latencies: the tail
// is the highest percentile that still has at least tailBeyond samples
// beyond it, i.e. the sample at sorted index n-tailBeyond-1.
func summarize(lat []time.Duration) (latencySummary, error) {
	n := len(lat)
	if n <= tailBeyond {
		return latencySummary{}, fmt.Errorf("%d samples: the tail needs more than %d", n, tailBeyond)
	}
	ms := make([]float64, n)
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	k := n - tailBeyond - 1
	return latencySummary{
		P50:    median(ms),
		Tail:   ms[k],
		TailP:  100 * float64(k+1) / float64(n),
		Beyond: n - 1 - k,
		N:      n,
	}, nil
}

// median returns the middle value of an ascending slice (the mean of
// the two middle values for even lengths).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of vs and returns its median.
func medianOf(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return median(s)
}

// meanOf returns the mean of vs (0 when empty).
func meanOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
