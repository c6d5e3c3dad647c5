package main

import (
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testdata/metrics.txt is GET /metrics captured from cmd/server (durable
// store, 200 imported scenes, a few searches and single writes).
func loadFixture(t *testing.T) scrape {
	t.Helper()
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseProm(f)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return s
}

func TestParsePromFixture(t *testing.T) {
	s := loadFixture(t)
	if got := s.get("bestring_import_images_total"); got != 200 {
		t.Errorf("bestring_import_images_total = %v, want 200", got)
	}
	if got := s.get("bestring_query_total"); got != 6 {
		t.Errorf("bestring_query_total = %v, want 6", got)
	}
	if got := s.get("bestring_commit_mutations_total"); got != 4 {
		t.Errorf("bestring_commit_mutations_total = %v, want 4", got)
	}
	// Labelled counters resolve whatever order the labels are given in.
	a := s.get("bestring_http_requests_total", "route", "/api/search", "code", "200")
	b := s.get("bestring_http_requests_total", "code", "200", "route", "/api/search")
	if a != 6 || a != b {
		t.Errorf("http requests by route = %v / %v, want 6", a, b)
	}
	if got := s.get("bestring_query_plan_total", "plan", "scan"); got != 3 {
		t.Errorf("scan plans = %v, want 3", got)
	}

	for _, tc := range []struct {
		name string
		kv   []string
	}{
		{"bestring_query_seconds", nil},
		{"bestring_query_stage_seconds", []string{"stage", "rank"}},
		{"bestring_wal_fsync_seconds", nil},
		{"bestring_commit_group_seconds", nil},
	} {
		h := s.histogram(tc.name, tc.kv...)
		if h.count <= 0 || len(h.bounds) == 0 {
			t.Fatalf("%s: empty histogram %+v", tc.name, h)
		}
		if !math.IsInf(h.bounds[len(h.bounds)-1], 1) || h.cum[len(h.cum)-1] != h.count {
			t.Errorf("%s: +Inf bucket %v != count %v", tc.name, h.cum[len(h.cum)-1], h.count)
		}
		for i := 1; i < len(h.cum); i++ {
			if h.cum[i] < h.cum[i-1] || h.bounds[i] <= h.bounds[i-1] {
				t.Fatalf("%s: buckets not cumulative and ascending at %d", tc.name, i)
			}
		}
		if m := h.mean(); math.Abs(m-h.sum/h.count) > 1e-15 || m <= 0 {
			t.Errorf("%s: mean %v", tc.name, m)
		}
	}
}

func TestScrapeDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(`# HELP x_seconds t
# TYPE x_seconds histogram
x_seconds_bucket{le="0.001"} 1
x_seconds_bucket{le="0.002"} 3
x_seconds_bucket{le="+Inf"} 3
x_seconds_sum 0.004
x_seconds_count 3
c_total{k="a b"} 5
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(`x_seconds_bucket{le="0.001"} 1
x_seconds_bucket{le="0.002"} 5
x_seconds_bucket{le="+Inf"} 7
x_seconds_sum 0.014
x_seconds_count 7 1700000000000
c_total{k="a b"} 9
`))
	if err != nil {
		t.Fatal(err)
	}
	d := after.sub(before)
	if got := d.get("c_total", "k", "a b"); got != 4 {
		t.Errorf("counter delta = %v, want 4", got)
	}
	h := d.histogram("x_seconds")
	if h.count != 4 || math.Abs(h.sum-0.010) > 1e-12 {
		t.Fatalf("histogram delta count %v sum %v", h.count, h.sum)
	}
	// Of the 4 new observations, 2 fall in (0.001, 0.002] and 2 beyond.
	if want := []float64{0, 2, 4}; !reflect.DeepEqual(h.cum, want) {
		t.Errorf("bucket deltas = %v, want %v", h.cum, want)
	}
	if m := h.mean(); math.Abs(m-0.0025) > 1e-12 {
		t.Errorf("mean = %v, want 0.0025", m)
	}
}

func TestParsePromEscapesAndErrors(t *testing.T) {
	s, err := parseProm(strings.NewReader(`m{a="q\"uo\\te",b="x\ny"} 2.5e-3`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.get("m", "a", `q"uo\te`, "b", "x\ny"); got != 2.5e-3 {
		t.Errorf("escaped labels: got %v (%v)", got, s)
	}
	for _, bad := range []string{`m{a="x"`, `m{a=x} 1`, `m 1 2 3`, `m notanumber`, `{a="b"} 1`} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parsed %q without error", bad)
		}
	}
}

func TestQuantileOf(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if q, beyond := quantileOf(v, 0.5); q != 50 || beyond != 50 {
		t.Errorf("p50 = %v (%d beyond)", q, beyond)
	}
	if q, beyond := quantileOf(v, 0.9); q != 90 || beyond != 10 {
		t.Errorf("p90 = %v (%d beyond)", q, beyond)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(0, "http.request", at(0), at(10), "r1", 0)
	srv := tr.add(root, "server.total", at(2), at(8), "r1", 0)
	tr.add(srv, "stage.index", at(3), at(5), "r1", 0)
	tr.add(srv, "stage.rank", at(4), at(7), "r1", 0) // overlaps index: union is 3..7
	self := tr.selfTimes()
	if got := self["http.request"].self; got != 4*time.Millisecond {
		t.Errorf("http.request self = %v, want 4ms", got)
	}
	if got := self["server.total"].self; got != 2*time.Millisecond {
		t.Errorf("server.total self = %v, want 2ms", got)
	}
	if got := self["stage.rank"].perCall(); got != 3*time.Millisecond {
		t.Errorf("stage.rank per call = %v, want 3ms", got)
	}
}

func TestCapacityMedianOfChunks(t *testing.T) {
	start := time.Unix(0, 0)
	var samples []sample
	// 50 completions 10ms apart, then a stall of 1s before the last 10.
	for i := 0; i < 60; i++ {
		d := time.Duration(i+1) * 10 * time.Millisecond
		if i >= 50 {
			d += time.Second
		}
		samples = append(samples, sample{sent: start, done: start.Add(d), ok: true, rows: 1})
	}
	if got := capacity(samples, 0); math.Abs(got-100) > 1e-9 {
		t.Errorf("capacity = %v, want 100/s (the stalled chunk is the outlier)", got)
	}
}
