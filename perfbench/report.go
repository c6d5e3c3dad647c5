package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// endToEnd and perLayer list, with units, every metric a run reports;
// BENCHMARK.json names the same sets. A run that leaves one unset is a
// benchmark bug and fails.
var endToEnd = map[string]string{
	"setup_s":              "s",
	"p50_ms":               "ms",
	"p90_ms":               "ms",
	"capacity_per_s":       "1/s",
	"server_peak_rss_mb":   "MB",
	"disk_bytes_per_scene": "B",
}

var perLayer = map[string]string{
	"lcs.length_us":              "us",
	"similarity.evaluate_us":     "us",
	"similarity.bound_us":        "us",
	"kernel.cpu_ms_per_query":    "ms",
	"query.total_ms":             "ms",
	"query.index_ms":             "ms",
	"query.region_ms":            "ms",
	"query.filter_ms":            "ms",
	"query.rank_ms":              "ms",
	"query.narrowed":             "count",
	"query.bounded":              "count",
	"query.evaluated":            "count",
	"query.pruned":               "count",
	"query.prune_ratio":          "ratio",
	"query.evaluated_per_hit":    "ratio",
	"planner.share.fixed":        "ratio",
	"planner.share.label-first":  "ratio",
	"planner.share.region-first": "ratio",
	"planner.share.filter-first": "ratio",
	"planner.share.scan":         "ratio",
	"cache.hit_ratio":            "ratio",
	"cache.evictions":            "count",
	"core.convert_us":            "us",
	"core.signature_us":          "us",
	"query.parse_us":             "us",
	"server.http_self_ms":        "ms",
	"server.cpu_ms_per_op":       "ms",
	"commit.queue_wait_ms":       "ms",
	"commit.group_ms":            "ms",
	"commit.mutations_per_group": "count",
	"wal.append_ms":              "ms",
	"wal.fsync_ms":               "ms",
	"wal.fsyncs_per_write":       "ratio",
	"wal.bytes_per_write":        "B",
	"mvcc.insert_ms":             "ms",
	"store.checkpoints":          "count",
	"store.recovery_s":           "s",
	"ingest.decode_us":           "us",
	"import.inproc_rows_per_s":   "1/s",
	"import.chunks":              "count",
	"import.wal_bytes_per_scene": "B",
	"loadgen.lag_p99_ms":         "ms",
	"loadgen.backlog_end":        "count",
	"trace.overhead_pct":         "%",
}

// metricRec is one reported metric with the number of samples behind it.
type metricRec struct {
	name  string
	value float64
	unit  string
	n     int
}

// report collects one run's metrics, request tallies and correctness
// failures.
type report struct {
	metrics   map[string]metricRec
	errs      []string
	notes     []string
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: map[string]metricRec{}} }

// set records a metric; its unit comes from the metric lists, and extra
// metrics (printed, not part of the result line) carry their own.
func (r *report) set(name string, v float64, n int) {
	unit, ok := endToEnd[name]
	if !ok {
		unit = perLayer[name]
	}
	r.metrics[name] = metricRec{name, v, unit, n}
}

// extra records a metric that only the human-readable table shows.
func (r *report) extra(name, unit string, v float64, n int) {
	r.metrics[name] = metricRec{name, v, unit, n}
}

// fail records a wrong result; any makes the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// note records a validity remark printed with the table.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tally counts the timed requests of a phase.
func (r *report) tally(samples []sample) {
	for _, s := range samples {
		r.attempted++
		if !s.ok {
			r.failed++
		}
	}
}

// printTable writes every recorded metric with unit and sample count.
func (r *report) printTable(w io.Writer, title string) {
	fmt.Fprintf(w, "== %s\n", title)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	fmt.Fprintf(w, "  requests attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, s := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", s)
	}
	for _, s := range r.errs {
		fmt.Fprintf(w, "  WRONG: %s\n", s)
	}
}

// resultLine is the JSON object the benchmark prints last.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result renders the result line for the end-to-end (trace off) or the
// per-layer (trace on) metric set. It errors when a metric is missing
// or not a finite number.
func (r *report) result(traced bool) ([]byte, error) {
	want := endToEnd
	if traced {
		want = perLayer
	}
	out := resultLine{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricJSON{}}
	var missing []string
	for name, unit := range want {
		m, ok := r.metrics[name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			missing = append(missing, name)
			continue
		}
		out.Metrics[name] = metricJSON{m.value, unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("no requests attempted")
	}
	return json.Marshal(out)
}
