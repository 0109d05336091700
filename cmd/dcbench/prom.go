package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// promSnapshot is one parsed Prometheus text exposition: sample value by
// canonical series key (name plus labels sorted by key), so lookups do not
// depend on the order the server renders labels in.
type promSnapshot map[string]float64

// promKey builds the canonical key for name and label pairs given as
// alternating key, value strings.
func promKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+"="+labels[i+1])
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// parseProm parses the text exposition format (0.0.4): comment lines are
// skipped, label values are unescaped. A malformed sample line is an error —
// a benchmark must not quietly read a truncated scrape.
func parseProm(text string) (promSnapshot, error) {
	snap := promSnapshot{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		series := strings.TrimSpace(line[:sp])
		name, rest, hasLabels := strings.Cut(series, "{")
		if !hasLabels {
			snap[name] = v
			continue
		}
		labels, err := parsePromLabels(strings.TrimSuffix(rest, "}"))
		if err != nil {
			return nil, fmt.Errorf("metrics: %v in %q", err, line)
		}
		snap[promKey(name, labels...)] = v
	}
	return snap, nil
}

// parsePromLabels splits `k="v",k2="v2"` into alternating keys and
// unescaped values.
func parsePromLabels(s string) ([]string, error) {
	var out []string
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return nil, fmt.Errorf("bad label block")
		}
		key := s[:eq]
		var val strings.Builder
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			val.WriteByte(s[i])
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated label value")
		}
		out = append(out, key, val.String())
		s = strings.TrimPrefix(s[i+1:], ",")
	}
	return out, nil
}

// promDelta is the change of the server's metrics across a phase. Summing
// several deltas (cluster nodes) is done by the callers that need it.
type promDelta struct{ before, after promSnapshot }

// counter returns after − before for one series; ok is false when the
// series is missing from the later scrape (a family the server does not
// export is n/a, not 0). A series absent only from the earlier scrape
// counts from 0 — label sets appear on first use.
func (d promDelta) counter(name string, labels ...string) (float64, bool) {
	k := promKey(name, labels...)
	a, ok := d.after[k]
	if !ok {
		return 0, false
	}
	return a - d.before[k], true
}

// gauge returns the series' value at the end of the phase.
func (d promDelta) gauge(name string, labels ...string) (float64, bool) {
	v, ok := d.after[promKey(name, labels...)]
	return v, ok
}

// family sums after − before over every series of one family whatever its
// labels (per-peer counters, say); ok is false when the later scrape holds
// no series of that name.
func (d promDelta) family(name string) (float64, bool) {
	var total float64
	found := false
	for k, a := range d.after {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += a - d.before[k]
			found = true
		}
	}
	return total, found
}

// sumFamily totals family over several servers' deltas.
func sumFamily(ds []promDelta, name string) (float64, bool) {
	var total float64
	for _, d := range ds {
		v, ok := d.family(name)
		if !ok {
			return 0, false
		}
		total += v
	}
	return total, len(ds) > 0
}

// sumCounter totals one counter over several servers' deltas; ok only when
// every server exports it.
func sumCounter(ds []promDelta, name string, labels ...string) (float64, bool) {
	var total float64
	for _, d := range ds {
		v, ok := d.counter(name, labels...)
		if !ok {
			return 0, false
		}
		total += v
	}
	return total, len(ds) > 0
}

// sumHist pools one histogram over several servers: total seconds, total
// count.
func sumHist(ds []promDelta, name string, labels ...string) (sumS float64, count float64, ok bool) {
	for _, d := range ds {
		s, ok1 := d.counter(name+"_sum", labels...)
		n, ok2 := d.counter(name+"_count", labels...)
		if !ok1 || !ok2 {
			return 0, 0, false
		}
		sumS += s
		count += n
	}
	return sumS, count, len(ds) > 0
}
