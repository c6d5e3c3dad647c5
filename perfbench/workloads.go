package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bestring/internal/core"
	"bestring/internal/imagedb"
	"bestring/internal/ingest"
	"bestring/internal/workload"
)

// Workload sizes and offered rates. Rates are fixed constants, never
// measured per run, so a parent and a change see the same load; each is
// about half the closed-loop capacity measured on a 2-CPU machine.
const (
	searchCorpus = 10000 // scenes behind both search workloads
	scanRate     = 24.0  // search-scan open-loop queries/s
	narrowRate   = 32.0  // search-narrow open-loop queries/s

	writeCorpus   = 10000 // scenes behind write-mixed
	writeRate     = 100.0 // write-mixed open-loop writes/s (insert, delete alternating)
	sideRate      = 2.0   // search-narrow queries/s beside the writes
	importRows    = 30000 // scenes the import workload streams
	importBatch   = 300   // scenes per import request
	setupRepeats  = 3     // set-ups per run; setup_s is their median
	checkSearches = 8     // search responses checked against the reference per run
	probeInserts  = 16    // acked inserts made just before the crash check
	probeDeletes  = 4     // acked deletes made just before the crash check
	warmScans     = 24    // search-scan warm-up queries
	warmWrites    = 40    // write-mixed warm-up writes

	// An untraced run's timed phases are repeated, up to maxAttempts in
	// all, while the hypervisor steals more than stealLimit of the
	// virtual machine's CPU time during them: on a shared host another
	// guest's burst can take a large share of a small VM's CPU for
	// minutes, which says nothing about the program. The attempt with the
	// least steal is reported.
	stealLimit  = 0.08
	maxAttempts = 3
)

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"search-scan", "search-narrow", "write-mixed", "import"}

// runner holds one workload run's configuration and state.
type runner struct {
	seed    int64
	seconds float64
	traced  bool
	bin     string
	dir     string
	conns   int
	client  *http.Client
	rep     *report
	tr      *tracer
	reqSeq  atomic.Int64

	// Per-query work of the traced searches, for kernel.cpu_ms_per_query.
	scoredPerQuery, boundedPerQuery float64
}

// phase is frac of the run's --seconds.
func (r *runner) phase(frac float64) time.Duration {
	return time.Duration(frac * r.seconds * float64(time.Second))
}

// requestID returns a fresh X-Request-Id for a traced request.
func (r *runner) requestID() string {
	return fmt.Sprintf("pb-%d-%d", r.seed, r.reqSeq.Add(1))
}

// start launches a server on dir and registers it for clean-up.
func (r *runner) start(dir string) (*server, error) {
	srv, err := startServer(r.bin, dir, r.client)
	if err != nil {
		return nil, err
	}
	track(srv)
	return srv, nil
}

// importStream posts one NDJSON stream and checks how many scenes the
// server reports committed.
func importStream(srv *server, body []byte, rows int, hdr map[string]string) error {
	code, b, err := srv.do(context.Background(), http.MethodPost, "/api/v1/import?no_resume=1", body, hdr)
	if err != nil {
		return fmt.Errorf("import: %w", err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("import: status %d: %s", code, b)
	}
	var resp struct {
		Import struct {
			Images int `json:"images"`
		} `json:"import"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		return fmt.Errorf("import response: %w", err)
	}
	if resp.Import.Images != rows {
		return fmt.Errorf("import committed %d of %d scenes", resp.Import.Images, rows)
	}
	return nil
}

// waitCheckpoint waits until no checkpoint is due or running, judged
// from the WAL volume on disk: the server checkpoints once the default
// volume has accumulated, and a checkpoint prunes the log behind it.
func waitCheckpoint(srv *server) error {
	deadline := time.Now().Add(120 * time.Second)
	for {
		h, err := srv.health()
		if err != nil {
			return err
		}
		if h.WAL.Bytes < imagedb.DefaultCheckpointBytes {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("checkpoint still pending after 120s (%d WAL bytes)", h.WAL.Bytes)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// setup starts a server on a fresh data directory and loads the corpus
// through POST /api/v1/import, waiting out any checkpoint the import
// triggered. Untraced runs set up setupRepeats times and report the
// median as setup_s; the last server is kept.
func (r *runner) setup(corpus []byte, rows int) (*server, error) {
	reps := setupRepeats
	if r.traced {
		reps = 1
	}
	var times []float64
	var srv *server
	for i := 0; i < reps; i++ {
		if srv != nil {
			srv.kill()
			if err := os.RemoveAll(srv.dir); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if srv, err = r.start(filepath.Join(r.dir, fmt.Sprintf("data%d", i))); err != nil {
			return nil, err
		}
		if rows > 0 {
			if err := importStream(srv, corpus, rows, nil); err != nil {
				return nil, err
			}
			if err := waitCheckpoint(srv); err != nil {
				return nil, err
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	sort.Float64s(times)
	med, _ := quantileOf(times, 0.5)
	if !r.traced {
		r.rep.set("setup_s", med, len(times))
	}
	return srv, nil
}

// searchRequest wraps a search body as a request whose response must
// decode and hold at most k hits.
func searchRequest(q searchBody, debug bool) request {
	return request{kind: "search", method: http.MethodPost, path: "/api/v1/search",
		body: q.encode(debug), rows: 1,
		onDone: func(_ int, body []byte) bool {
			var resp searchResp
			return json.Unmarshal(body, &resp) == nil && len(resp.Hits) <= searchK
		}}
}

// checkSample compares responses to their reference answers.
func (r *runner) checkSample(corpus []ingest.Scene, qs []searchBody, bodies [][]byte) error {
	ref, err := refCorpus(corpus)
	if err != nil {
		return err
	}
	for i, q := range qs {
		if err := checkSearch(ref, q, bodies[i]); err != nil {
			r.rep.fail("search %d: %v", i, err)
		}
	}
	return nil
}

// searchAfter runs qs sequentially on srv and checks the answers
// against the reference over corpus.
func (r *runner) searchAfter(srv *server, corpus []ingest.Scene, qs []searchBody) error {
	bodies := make([][]byte, len(qs))
	for i, q := range qs {
		code, b, err := srv.do(context.Background(), http.MethodPost, "/api/v1/search", q.encode(false), nil)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			r.rep.fail("search %d after writes: status %d", i, code)
		}
		bodies[i] = b
	}
	return r.checkSample(corpus, qs, bodies)
}

// e2eLatency records p50/p90 of the samples of one kind; each
// percentile needs at least ten samples beyond it.
func (r *runner) e2eLatency(samples []sample, kind string) {
	lat := latenciesMS(samples, kind)
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.5}, {"p90_ms", 0.9}} {
		v, beyond := quantileOf(lat, p.q)
		if beyond < 10 {
			r.rep.note("%s rests on %d samples with only %d beyond it", p.name, len(lat), beyond)
		}
		r.rep.set(p.name, v, len(lat))
	}
}

// serverFootprint records peak RSS and data-directory bytes per scene.
func (r *runner) serverFootprint(srv *server) error {
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	r.rep.set("server_peak_rss_mb", rss, 1)
	h, err := srv.health()
	if err != nil {
		return err
	}
	n, err := dirBytes(srv.dir)
	if err != nil {
		return err
	}
	if h.Images == 0 {
		return fmt.Errorf("server holds no scenes")
	}
	r.rep.set("disk_bytes_per_scene", float64(n)/float64(h.Images), h.Images)
	return nil
}

// openLoopReport records the load generator's own validity numbers.
func (r *runner) openLoopReport(res openLoopResult) {
	lags := make([]float64, len(res.genLag))
	for i, d := range res.genLag {
		lags[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(lags)
	p99, _ := quantileOf(lags, 0.99)
	r.rep.set("loadgen.lag_p99_ms", p99, len(lags))
	r.rep.set("loadgen.backlog_end", float64(res.backlogEnd), len(res.samples))
	if !res.valid(r.conns) {
		r.rep.note("INVALID open loop: backlog grew to %d (mid-run %d)", res.backlogEnd, res.backlogMid)
	}
}

// timed runs attempt, a workload's timed phases, until the host steals
// at most stealLimit of its CPU time during one or maxAttempts have run,
// and returns the index of the attempt with the least steal. Traced runs
// make one attempt: their per-layer deltas span the whole run.
func (r *runner) timed(attempt func()) (int, error) {
	best, bestSteal := 0, 2.0
	n := maxAttempts
	if r.traced {
		n = 1
	}
	var steals []string
	for i := 0; i < n; i++ {
		total0, steal0, err := hostCPU()
		if err != nil {
			return 0, err
		}
		attempt()
		total1, steal1, err := hostCPU()
		if err != nil {
			return 0, err
		}
		share := ratio(steal1-steal0, total1-total0)
		steals = append(steals, fmt.Sprintf("%.1f%%", 100*share))
		if share < bestSteal {
			best, bestSteal = i, share
		}
		if share <= stealLimit {
			break
		}
	}
	r.rep.extra("host.steal_pct", "%", 100*bestSteal, len(steals))
	if len(steals) > 1 {
		r.rep.note("timed phases run %d times (host steal %s); reporting attempt %d",
			len(steals), strings.Join(steals, ", "), best+1)
	}
	return best, nil
}

// warmUp sends requests one at a time before a timed phase and fails
// the run on any error (it runs on the same inputs the timed phase uses).
func (r *runner) warmUp(srv *server, reqs []request) {
	for i, q := range reqs {
		if s := send(srv, q, nil, false); !s.ok {
			r.rep.fail("warm-up request %d failed", i)
		}
	}
}

// writeSamples dumps a phase's per-request timings as CSV into the run
// directory: kind, due time (ms since the first due time), latency from
// due (ms), service time (ms), ok.
func (r *runner) writeSamples(phase string, samples []sample) {
	if len(samples) == 0 {
		return
	}
	var b strings.Builder
	b.WriteString("kind,due_ms,latency_ms,service_ms,ok\n")
	t0 := samples[0].due
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, s := range samples {
		fmt.Fprintf(&b, "%s,%.3f,%.3f,%.3f,%v\n", s.kind, ms(s.due.Sub(t0)), ms(s.latency()), ms(s.service()), s.ok)
	}
	_ = os.WriteFile(filepath.Join(r.dir, phase+"-samples.csv"), []byte(b.String()), 0o644)
}

// capacity is the completed rows per second of a closed-loop phase: the
// median over capacityChunks consecutive chunks of equally many
// completions, so one stalled stretch (a GC cycle, a descheduled vCPU)
// does not move the figure.
func capacity(samples []sample, span time.Duration) float64 {
	done := make([]sample, 0, len(samples))
	var start time.Time
	for _, s := range samples {
		if start.IsZero() || s.sent.Before(start) {
			start = s.sent
		}
		if s.ok {
			done = append(done, s)
		}
	}
	if len(done) < 2*capacityChunks {
		return rowsPerSecond(samples, span)
	}
	sort.Slice(done, func(i, j int) bool { return done[i].done.Before(done[j].done) })
	rates := make([]float64, 0, capacityChunks)
	prev, i := start, 0
	for c := 1; c <= capacityChunks; c++ {
		end := c * len(done) / capacityChunks
		rows := 0
		for ; i < end; i++ {
			rows += done[i].rows
		}
		last := done[end-1].done
		rates = append(rates, float64(rows)/last.Sub(prev).Seconds())
		prev = last
	}
	sort.Float64s(rates)
	med, _ := quantileOf(rates, 0.5)
	return med
}

// capacityChunks is the number of chunks a closed-loop phase's
// throughput is taken over.
const capacityChunks = 5

// rowsPerSecond is the completed rows over the phase's span.
func rowsPerSecond(samples []sample, span time.Duration) float64 {
	rows := 0
	for _, s := range samples {
		if s.ok {
			rows += s.rows
		}
	}
	return float64(rows) / span.Seconds()
}

// hdrFor returns per-request trace headers in traced runs.
func (r *runner) hdrFor() func(int) map[string]string {
	if !r.traced {
		return nil
	}
	return func(int) map[string]string {
		return map[string]string{"X-Request-Id": r.requestID()}
	}
}

// nextHdr is hdrFor for closed loops (called under the loop's lock).
func (r *runner) nextHdr() func() map[string]string {
	if !r.traced {
		return nil
	}
	return func() map[string]string { return map[string]string{"X-Request-Id": r.requestID()} }
}

// dslOf collects the predicate expressions of search bodies.
func dslOf(qs []searchBody) []string {
	var out []string
	for _, q := range qs {
		if q.DSL != "" {
			out = append(out, q.DSL)
		}
	}
	return out
}

func imagesOf(qs []searchBody) []core.Image {
	out := make([]core.Image, len(qs))
	for i, q := range qs {
		out[i] = *q.Image
	}
	return out
}

// runSearch is search-scan (narrow=false) and search-narrow.
func (r *runner) runSearch(narrow bool) error {
	g := workload.NewGenerator(sceneConfig(r.seed))
	corpus := genScenes(g, "s", 0, searchCorpus)
	body := ndjson(corpus)
	srv, err := r.setup(body, len(corpus))
	if err != nil {
		return err
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()

	qg := newQueryGen(corpus, r.seed+1)
	next, rate := qg.scan, scanRate
	var hot *hotSet
	if narrow {
		hot = newHotSet(qg)
		next, rate = hot.next, narrowRate
	}
	n := int(rate * r.seconds)
	var sent []searchBody
	sch := schedule{offsets: fixedRate(rate, n)}
	for range sch.offsets {
		q := next()
		sent = append(sent, q)
		sch.reqs = append(sch.reqs, searchRequest(q, r.traced))
	}
	var closedSent []searchBody
	nextQ := func() searchBody {
		q := next()
		closedSent = append(closedSent, q)
		return q
	}
	nextReq := func() request { return searchRequest(nextQ(), r.traced) }

	// Warm up before timing: the scan path on a few fresh queries, the
	// narrow path on every hot-set query once, which also fills the
	// scorer cache with the hot working set.
	var warm []request
	if narrow {
		for _, q := range hot.queries {
			warm = append(warm, searchRequest(q, false))
		}
	} else {
		wq := newQueryGen(corpus, r.seed+5)
		for i := 0; i < warmScans; i++ {
			warm = append(warm, searchRequest(wq.scan(), false))
		}
	}
	r.warmUp(srv, warm)

	before, err := r.scrapeStart(srv)
	if err != nil {
		return err
	}
	type phases struct {
		open   openLoopResult
		closed []sample
		span   time.Duration
	}
	var tries []phases
	best, err := r.timed(func() {
		open := openLoop(srv, sch, r.conns, r.hdrFor(), true)
		closed, span := closedLoop(srv, r.conns, r.phase(0.5), nextReq, r.nextHdr(), r.traced)
		r.rep.tally(open.samples)
		r.rep.tally(closed)
		tries = append(tries, phases{open, closed, span})
	})
	if err != nil {
		return err
	}
	open, closed, span := tries[best].open, tries[best].closed, tries[best].span
	r.writeSamples("open", open.samples)
	r.openLoopReport(open)

	// Correctness: a fixed sample of open-loop responses against the
	// brute-force reference (the corpus is unchanged during the run).
	k := min(checkSearches, len(sent))
	bodies := make([][]byte, k)
	for i := range bodies {
		bodies[i] = open.samples[i].body
	}
	if err := r.checkSample(corpus, sent[:k], bodies); err != nil {
		return err
	}

	if !r.traced {
		r.e2eLatency(open.samples, "search")
		r.rep.set("capacity_per_s", capacity(closed, span), len(closed))
		if err := r.serverFootprint(srv); err != nil {
			return err
		}
	} else {
		plain := func() request { return searchRequest(nextQ(), false) }
		if err := r.tracedLayers(srv, before, open.samples, closed, span, plain); err != nil {
			return err
		}
	}

	if !r.traced {
		return nil
	}
	srv, err = r.tracedTail(srv, before, corpus, corpus, append(sent, closedSent...))
	return err
}

// runWriteMixed is the write-mixed workload.
func (r *runner) runWriteMixed() error {
	g := workload.NewGenerator(sceneConfig(r.seed))
	corpus := genScenes(g, "s", 0, writeCorpus)
	srv, err := r.setup(ndjson(corpus), len(corpus))
	if err != nil {
		return err
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()

	hot := newHotSet(newQueryGen(corpus, r.seed+1))
	wg := newWriteGen(r.seed+2, corpus)
	l := newLedger()
	mu := new(sync.Mutex)

	nextReq := func() request { return wg.nextOp().request(l, mu) }
	// Warm up the write path (its ledger entries count like any other).
	var warm []request
	for i := 0; i < warmWrites; i++ {
		warm = append(warm, wg.nextOp().request(l, mu))
	}
	r.warmUp(srv, warm)

	before, err := r.scrapeStart(srv)
	if err != nil {
		return err
	}
	type phases struct {
		open   openLoopResult
		closed []sample
		span   time.Duration
	}
	var tries []phases
	var sideQs []searchBody
	best, err := r.timed(func() {
		sch, qs := r.writeSchedule(wg, hot, l, mu)
		sideQs = append(sideQs, qs...)
		open := openLoop(srv, sch, r.conns, r.hdrFor(), r.traced)
		closed, span := closedLoop(srv, r.conns, r.phase(0.5), nextReq, r.nextHdr(), false)
		bookFailures(l, open.samples)
		bookFailures(l, closed)
		r.rep.tally(open.samples)
		r.rep.tally(closed)
		tries = append(tries, phases{open, closed, span})
	})
	if err != nil {
		return err
	}
	open, closed, span := tries[best].open, tries[best].closed, tries[best].span
	r.writeSamples("open", open.samples)
	r.openLoopReport(open)
	side := latenciesMS(open.samples, "search")
	p50, _ := quantileOf(side, 0.5)
	r.rep.extra("side_search_p50_ms", "ms", p50, len(side))

	if !r.traced {
		r.e2eLatency(open.samples, "write")
		r.rep.set("capacity_per_s", capacity(closed, span), len(closed))
		if err := r.serverFootprint(srv); err != nil {
			return err
		}
	} else {
		if err := r.tracedLayers(srv, before, open.samples, closed, span, nextReq); err != nil {
			return err
		}
	}
	r.probeWrites(srv, wg, l)
	if r.traced {
		if err := r.writeLayers(srv, before); err != nil {
			return err
		}
	}
	if srv, err = r.crashCheck(srv, corpus, l); err != nil {
		return err
	}
	// The recovered store must answer searches exactly as the reference
	// does over the acked final state; a write whose outcome is unknown
	// leaves that state unknown, so the check needs every write settled.
	final := liveScenes(corpus, wg, l)
	if len(l.uncertain) == 0 {
		if err := r.searchAfter(srv, final, hot.queries[:checkSearches]); err != nil {
			return err
		}
	} else {
		r.rep.note("search check after recovery skipped: %d writes failed", len(l.uncertain))
	}
	if r.traced {
		srv.stop()
		return r.replay(final, append(sideQs, hot.queries...))
	}
	return nil
}

// runImport is the import workload: importRows new scenes streamed as
// sequential NDJSON requests of importBatch scenes into a store that
// set-up loaded with the searchCorpus base.
func (r *runner) runImport() error {
	g := workload.NewGenerator(sceneConfig(r.seed))
	base := genScenes(g, "s", 0, searchCorpus)
	scenes := genScenes(g, "i", 0, importRows)
	var batches [][]byte
	for i := 0; i < len(scenes); i += importBatch {
		batches = append(batches, ndjson(scenes[i:min(i+importBatch, len(scenes))]))
	}
	srv, err := r.setup(ndjson(base), len(base))
	if err != nil {
		return err
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	before, err := r.scrapeStart(srv)
	if err != nil {
		return err
	}

	var samples []sample
	start := time.Now()
	for i, b := range batches {
		rows := min(importBatch, len(scenes)-i*importBatch)
		req := request{kind: "import", method: http.MethodPost, path: "/api/v1/import?no_resume=1",
			body: b, rows: rows,
			onDone: func(_ int, body []byte) bool {
				var resp struct {
					Import struct {
						Images int `json:"images"`
					} `json:"import"`
				}
				return json.Unmarshal(body, &resp) == nil && resp.Import.Images == rows
			}}
		var hdr map[string]string
		rid := ""
		if r.traced {
			rid = r.requestID()
			hdr = map[string]string{"X-Request-Id": rid}
		}
		s := send(srv, req, hdr, false)
		s.due, s.reqID = s.sent, rid
		samples = append(samples, s)
		if r.traced {
			r.tr.add(0, "http.import", s.sent, s.done, rid, rows)
		}
	}
	span := time.Since(start)
	r.rep.tally(samples)

	// Correctness: scene count and a sample of scenes read back.
	h, err := srv.health()
	if err != nil {
		return err
	}
	if h.Images != len(base)+importRows {
		r.rep.fail("store holds %d scenes after the import, want %d", h.Images, len(base)+importRows)
	}
	for i := 0; i < 32; i++ {
		s := scenes[(i*7919)%len(scenes)]
		var e struct {
			Image core.Image `json:"image"`
		}
		if err := srv.getJSON("/api/v1/images/"+s.ID, &e); err != nil {
			r.rep.fail("read back %s: %v", s.ID, err)
			continue
		}
		if !reflect.DeepEqual(e.Image, s.Image) {
			r.rep.fail("scene %s read back differs from the source", s.ID)
		}
	}
	all := append(append([]ingest.Scene{}, base...), scenes...)
	hot := newHotSet(newQueryGen(all, r.seed+1))

	if !r.traced {
		r.e2eLatency(samples, "import")
		r.rep.set("capacity_per_s", rowsPerSecond(samples, span), importRows)
		if err := r.serverFootprint(srv); err != nil {
			return err
		}
	} else {
		// CPU per op here is per import request. The import has no
		// search of its own: the read-path layers are measured on
		// closed-loop searches over the imported corpus, once the
		// checkpoint the import triggered has finished.
		cpu, err := srv.cpuSeconds()
		if err != nil {
			return err
		}
		cpuPerImport := 1000 * (cpu - before.cpu) / float64(len(samples))
		if err := waitCheckpoint(srv); err != nil {
			return err
		}
		nextReq := func() request { return searchRequest(hot.next(), true) }
		closed, cspan := closedLoop(srv, r.conns, r.phase(0.5), nextReq, r.nextHdr(), true)
		r.rep.tally(closed)
		plain := func() request { return searchRequest(hot.next(), false) }
		if err := r.tracedLayers(srv, before, nil, closed, cspan, plain); err != nil {
			return err
		}
		r.rep.set("server.cpu_ms_per_op", cpuPerImport, len(samples))
		r.sequentialLag(samples)
	}
	if err := r.searchAfter(srv, all, hot.queries[:checkSearches]); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}
	srv, err = r.tracedTail(srv, before, all, all, hot.queries)
	return err
}

// sequentialLag records the load generator's lateness in a one-connection
// closed loop, where each request is due when its predecessor's
// response arrives: the gap the load generator itself adds between the two.
// Nothing can queue, so the backlog is zero by construction.
func (r *runner) sequentialLag(samples []sample) {
	var lags []float64
	for i := 1; i < len(samples); i++ {
		lags = append(lags, float64(samples[i].sent.Sub(samples[i-1].done))/float64(time.Millisecond))
	}
	sort.Float64s(lags)
	p99, _ := quantileOf(lags, 0.99)
	r.rep.set("loadgen.lag_p99_ms", p99, len(lags))
	r.rep.set("loadgen.backlog_end", 0, len(samples))
}
