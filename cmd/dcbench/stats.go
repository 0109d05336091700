package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Metric is one named measurement. A metric the run expected but could
// not measure (a /metrics family that is missing, a route that saw no
// traffic) is carried with NA set and printed as "n/a" — never as 0, so a
// broken scrape cannot pass for a fast server.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile or a mean; 0 where the
	// value is a plain count or ratio.
	N    int    `json:"n,omitempty"`
	NA   bool   `json:"na,omitempty"`
	Note string `json:"note,omitempty"`
}

func (m Metric) String() string {
	if m.NA {
		return fmt.Sprintf("%-44s %14s", m.Name, "n/a")
	}
	s := fmt.Sprintf("%-44s %14.4f %-8s", m.Name, m.Value, m.Unit)
	if m.N > 0 {
		s += fmt.Sprintf(" n=%d", m.N)
	}
	if m.Note != "" {
		s += " (" + m.Note + ")"
	}
	return s
}

// metricSet collects metrics in report order.
type metricSet []Metric

func (s *metricSet) add(name string, v float64, unit string) {
	*s = append(*s, Metric{Name: name, Value: v, Unit: unit})
}

func (s *metricSet) addN(name string, v float64, unit string, n int) {
	*s = append(*s, Metric{Name: name, Value: v, Unit: unit, N: n})
}

func (s *metricSet) na(name, unit string) {
	*s = append(*s, Metric{Name: name, Unit: unit, NA: true})
}

// addOK adds the value when ok, the n/a marker otherwise.
func (s *metricSet) addOK(name string, v float64, unit string, n int, ok bool) {
	if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
		s.na(name, unit)
		return
	}
	s.addN(name, v, unit, n)
}

func (s metricSet) get(name string) (Metric, bool) {
	for _, m := range s {
		if m.Name == name {
			return m, !m.NA
		}
	}
	return Metric{}, false
}

// minTailSamples is the sample count below which a 99th percentile has
// fewer than ten samples beyond it; such a phase reports p90 instead.
const minTailSamples = 1000

// percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of the samples at
// or below it.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// latencySummary is the percentiles reported for one set of latencies.
type latencySummary struct {
	N    int
	P50  time.Duration
	P90  time.Duration
	Tail time.Duration
	// TailNote is "" when Tail is p99; it says so when Tail is p90.
	TailNote string
}

// summarize sorts samples in place and picks p50, p90 and the tail
// percentile: p99 from minTailSamples samples on, p90 below that.
func summarize(samples []time.Duration) latencySummary {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	s := latencySummary{N: len(samples), P50: percentile(samples, 0.50), P90: percentile(samples, 0.90)}
	if len(samples) >= minTailSamples {
		s.Tail = percentile(samples, 0.99)
	} else {
		s.Tail = s.P90
		s.TailNote = fmt.Sprintf("p90: fewer than %d samples", minTailSamples)
	}
	return s
}

// sliceWidth is the length of the slices a timed phase is cut into. Every
// headline figure is the median over the slices of the slice's own figure
// (throughput, p50, tail, CPU per operation), so a few slow seconds —
// another tenant of the host, a collection that ran long — move it far
// less than they move a whole-phase figure. Two seconds matches the
// servers' snapshot interval, so every slice carries one snapshot.
const sliceWidth = 2 * time.Second

// slice is the requests that completed within one slice of a phase.
type slice struct {
	profiles, queries int
	latencies         []time.Duration
}

// cutSlices buckets a tally's successful requests by completion time into
// n slices of width from start. A request that completes after the last
// slice (the ones in flight at the deadline) counts in the last.
func cutSlices(t *tally, start time.Time, width time.Duration, n int) []slice {
	out := make([]slice, n)
	for i, end := range t.ends {
		k := int(end.Sub(start) / width)
		k = max(0, min(n-1, k))
		if t.counts[i] > 0 {
			out[k].profiles += int(t.counts[i])
		} else {
			out[k].queries++
		}
		out[k].latencies = append(out[k].latencies, t.latencies[i])
	}
	return out
}

// minSliceSamples is the slice size below which a slice's own p90 has
// fewer than ten samples beyond it.
const minSliceSamples = 100

// summarizeSlices reports p50 and p90 as the medians over the slices of
// each slice's own p50 and p90 — except that where the median slice holds
// fewer than minSliceSamples requests (the cluster's reader answers twenty
// queries a slice) p90 is taken over the whole phase. The tail, p99 or p90
// by the minTailSamples rule, is always over the whole phase: it is there
// to show the rare stall, which a median of slices would hide.
func summarizeSlices(slices []slice) latencySummary {
	var all []time.Duration
	var sizes, p50s, p90s []float64
	for _, s := range slices {
		sizes = append(sizes, float64(len(s.latencies)))
		if len(s.latencies) == 0 {
			continue
		}
		all = append(all, s.latencies...)
		sort.Slice(s.latencies, func(i, j int) bool { return s.latencies[i] < s.latencies[j] })
		p50s = append(p50s, float64(percentile(s.latencies, 0.50)))
		p90s = append(p90s, float64(percentile(s.latencies, 0.90)))
	}
	out := summarize(all)
	out.P50 = time.Duration(median(p50s))
	if median(sizes) >= minSliceSamples {
		out.P90 = time.Duration(median(p90s))
	}
	return out
}

// ratePerSecond is the median over the slices of count(slice) per second.
// Where the median slice counts fewer than minSliceSamples, a slice's rate
// moves in steps of several percent, so the rate is total over elapsed.
func ratePerSecond(slices []slice, width time.Duration, count func(slice) int, total int64, elapsed time.Duration) float64 {
	rates := make([]float64, len(slices))
	counts := make([]float64, len(slices))
	for i, s := range slices {
		counts[i] = float64(count(s))
		rates[i] = counts[i] / width.Seconds()
	}
	if median(counts) < minSliceSamples {
		return float64(total) / elapsed.Seconds()
	}
	return median(rates)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// addLatency reports <prefix>_p50_ms, _p90_ms and _p99_ms (the last
// carrying a note when it holds p90).
func (s *metricSet) addLatency(prefix string, l latencySummary) {
	if l.N == 0 {
		s.na(prefix+"_p50_ms", "ms")
		s.na(prefix+"_p90_ms", "ms")
		s.na(prefix+"_p99_ms", "ms")
		return
	}
	s.addN(prefix+"_p50_ms", ms(l.P50), "ms", l.N)
	s.addN(prefix+"_p90_ms", ms(l.P90), "ms", l.N)
	*s = append(*s, Metric{Name: prefix + "_p99_ms", Value: ms(l.Tail), Unit: "ms", N: l.N, Note: l.TailNote})
}

// median of a float slice (sorts a copy); 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
