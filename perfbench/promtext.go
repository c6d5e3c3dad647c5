package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// scrape is one parsed Prometheus text exposition: every sample keyed by
// its canonical series name, name{k1="v1",k2="v2"} with labels sorted.
type scrape map[string]float64

// parseProm reads the Prometheus text format (version 0.0.4) that the
// server's GET /metrics serves. Comment lines are skipped; a sample line
// is `name{labels} value` with an optional trailing timestamp.
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		name, labels, rest, err := splitSeries(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return nil, fmt.Errorf("metrics line %d: want a value after the series", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: value: %w", line, err)
		}
		out[seriesKey(name, labels)] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read metrics: %w", err)
	}
	return out, nil
}

// splitSeries splits a sample line into metric name, label map and the
// remainder holding the value.
func splitSeries(s string) (string, map[string]string, string, error) {
	i := strings.IndexAny(s, "{ \t")
	if i <= 0 {
		return "", nil, "", fmt.Errorf("no metric name in %q", s)
	}
	name := s[:i]
	if s[i] != '{' {
		return name, nil, s[i:], nil
	}
	labels := map[string]string{}
	j := i + 1
	for {
		for j < len(s) && (s[j] == ' ' || s[j] == ',') {
			j++
		}
		if j >= len(s) {
			return "", nil, "", fmt.Errorf("unterminated label set in %q", s)
		}
		if s[j] == '}' {
			return name, labels, s[j+1:], nil
		}
		eq := strings.IndexByte(s[j:], '=')
		if eq <= 0 || j+eq+1 >= len(s) || s[j+eq+1] != '"' {
			return "", nil, "", fmt.Errorf("bad label in %q", s)
		}
		key := strings.TrimSpace(s[j : j+eq])
		j += eq + 2
		var val strings.Builder
		for ; j < len(s) && s[j] != '"'; j++ {
			if s[j] == '\\' && j+1 < len(s) {
				j++
				switch s[j] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[j])
				}
				continue
			}
			val.WriteByte(s[j])
		}
		if j >= len(s) {
			return "", nil, "", fmt.Errorf("unterminated label value in %q", s)
		}
		labels[key] = val.String()
		j++ // closing quote
	}
}

// seriesKey renders the canonical key of a series.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// pairs turns k1, v1, k2, v2... into a label map.
func pairs(kv []string) map[string]string {
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// get returns one series' value (0 when absent, as for a counter that
// has not been registered yet).
func (s scrape) get(name string, kv ...string) float64 {
	return s[seriesKey(name, pairs(kv))]
}

// sub returns s - before for every series of s: the counter and
// histogram deltas over the interval between the two scrapes.
func (s scrape) sub(before scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// histogram is one histogram series: cumulative bucket counts by upper
// bound, plus _count and _sum. The benchmark reports means; the buckets
// are kept so a delta can be checked for consistency.
type histogram struct {
	bounds []float64 // ascending, +Inf last
	cum    []float64
	count  float64
	sum    float64
}

// histogram collects the _bucket/_count/_sum series of one histogram.
func (s scrape) histogram(name string, kv ...string) histogram {
	h := histogram{count: s.get(name+"_count", kv...), sum: s.get(name+"_sum", kv...)}
	base := pairs(kv)
	type bucket struct{ le, n float64 }
	var buckets []bucket
	for key, v := range s {
		if !strings.HasPrefix(key, name+"_bucket{") {
			continue
		}
		_, labels, _, err := splitSeries(key + " 0")
		if err != nil {
			continue
		}
		le, ok := labels["le"]
		if !ok {
			continue
		}
		delete(labels, "le")
		if seriesKey("", labels) != seriesKey("", base) {
			continue
		}
		bound, err := strconv.ParseFloat(le, 64) // accepts "+Inf"
		if err != nil {
			continue
		}
		buckets = append(buckets, bucket{bound, v})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	for _, b := range buckets {
		h.bounds = append(h.bounds, b.le)
		h.cum = append(h.cum, b.n)
	}
	return h
}

// mean is sum/count, 0 for an empty histogram.
func (h histogram) mean() float64 {
	if h.count <= 0 {
		return 0
	}
	return h.sum / h.count
}
