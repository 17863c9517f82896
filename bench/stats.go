package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between the closest ranks; xs need not be sorted. NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// supportedPermille are the percentiles a timing may be reported at, in
// tenths of a percent (exact in integers), lowest first.
var supportedPermille = []int{500, 750, 900, 950, 990, 999}

// highestPercentile is the reporting rule for tail latency: the highest
// percentile that still has at least ten of n samples beyond it. Zero
// means n is too small for even the median to qualify.
func highestPercentile(n int) float64 {
	best := 0
	for _, p := range supportedPermille {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}

// sample is one measured operation. due is when the load model wanted
// the operation to start (the previous completion for a closed loop,
// the scheduled arrival for an open loop, the burst start for a burst);
// sent is when its first request actually went out; done is when the
// result was received.
type sample struct {
	due, sent, done time.Time
	// class names the kind of operation where a workload mixes kinds
	// (sweep kind, cached or fresh job); empty otherwise.
	class string
}

// latencyMS is the user-visible latency: due to done, so a stalled
// generator or a queue ahead of the request is charged to the op.
func (s sample) latencyMS() float64 { return ms(s.done.Sub(s.due)) }

// lateMS is how far behind schedule the generator sent the op.
func (s sample) lateMS() float64 { return ms(s.sent.Sub(s.due)) }

// ms converts a duration to float milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// windowStats summarizes the samples of one measured window that
// started at start.
type windowStats struct {
	Ops        int     `json:"ops"`
	OpsPerS    float64 `json:"ops_per_s"`
	P50MS      float64 `json:"latency_p50_ms"`
	P75MS      float64 `json:"latency_p75_ms"`
	P90MS      float64 `json:"latency_p90_ms"`
	TailPct    float64 `json:"highest_supported_percentile"`
	TailMS     float64 `json:"latency_tail_ms"`
	LateP90MS  float64 `json:"late_p90_ms"`
	LastDoneMS float64 `json:"last_done_ms"`
	// ClassP50MS is the median latency of each operation class.
	ClassP50MS map[string]float64 `json:"class_p50_ms,omitempty"`
}

// summarize computes throughput and latency percentiles. Throughput
// counts every op due inside the window over the span from the window
// start to the last completion, so ops still finishing after the
// deadline are neither dropped nor given free time.
func summarize(start time.Time, samples []sample) windowStats {
	st := windowStats{Ops: len(samples)}
	if len(samples) == 0 {
		return st
	}
	lat := make([]float64, len(samples))
	late := make([]float64, len(samples))
	last := start
	byClass := map[string][]float64{}
	for i, s := range samples {
		lat[i] = s.latencyMS()
		if s.class != "" {
			byClass[s.class] = append(byClass[s.class], lat[i])
		}
		late[i] = s.lateMS()
		if s.done.After(last) {
			last = s.done
		}
	}
	span := last.Sub(start)
	st.LastDoneMS = ms(span)
	if span > 0 {
		st.OpsPerS = float64(len(samples)) / span.Seconds()
	}
	st.P50MS = quantile(lat, 0.50)
	st.P75MS = quantile(lat, 0.75)
	st.P90MS = quantile(lat, 0.90)
	st.TailPct = highestPercentile(len(samples))
	if st.TailPct > 0 {
		st.TailMS = quantile(lat, st.TailPct/100)
	}
	st.LateP90MS = quantile(late, 0.90)
	if len(byClass) > 0 {
		st.ClassP50MS = map[string]float64{}
		for c, xs := range byClass {
			st.ClassP50MS[c] = median(xs)
		}
	}
	return st
}
