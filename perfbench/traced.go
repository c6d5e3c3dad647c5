package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"bestring/internal/ingest"
	"bestring/internal/workload"
)

// tracedTail ends a traced run of a workload without writes of its own:
// a few probe writes move the write path's counters, a SIGKILL and
// restart time the recovery and check that the acked probe writes
// survived, and the layer replay runs once the server is gone. It
// returns the server it stopped, for the caller's deferred clean-up.
func (r *runner) tracedTail(srv *server, before baseline, base, replayCorpus []ingest.Scene, qs []searchBody) (*server, error) {
	wg := newWriteGen(r.seed+2, base)
	l := newLedger()
	r.probeWrites(srv, wg, l)
	if err := r.writeLayers(srv, before); err != nil {
		return srv, err
	}
	srv, err := r.crashCheck(srv, base, l)
	if err != nil {
		return srv, err
	}
	srv.stop()
	return srv, r.replay(replayCorpus, qs)
}

// baseline is the counters and CPU time a traced run's deltas start
// from.
type baseline struct {
	m   scrape
	cpu float64
}

func (r *runner) scrapeStart(srv *server) (baseline, error) {
	if !r.traced {
		return baseline{}, nil
	}
	m, err := srv.metrics()
	if err != nil {
		return baseline{}, err
	}
	cpu, err := srv.cpuSeconds()
	return baseline{m, cpu}, err
}

// tracedLayers derives the per-layer metrics of a traced run's timed
// phases: pipeline numbers from the searches' stages, spans for every
// request, cache and CPU deltas, and the tracing overhead measured
// against an untraced closed loop (requests from plain) of equal length.
func (r *runner) tracedLayers(srv *server, before baseline, open, closed []sample, span time.Duration, plain func() request) error {
	after, err := srv.metrics()
	if err != nil {
		return err
	}
	cpu, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	all := append(append([]sample{}, open...), closed...)
	if err := r.pipelineLayers(all); err != nil {
		return err
	}
	for _, s := range all {
		if s.kind == "write" {
			r.tr.add(0, "http.write", s.sent, s.done, s.reqID, 0)
		}
	}
	d := after.sub(before.m)
	hits := d.get("bestring_scorer_cache_hits_total")
	misses := d.get("bestring_scorer_cache_misses_total")
	r.rep.set("cache.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	r.rep.set("cache.evictions", d.get("bestring_scorer_cache_evictions_total"), 1)
	r.rep.set("server.cpu_ms_per_op", 1000*(cpu-before.cpu)/float64(len(all)), len(all))

	untraced, untracedSpan := closedLoop(srv, r.conns, span, plain, nil, false)
	r.rep.tally(untraced)
	r.rep.set("trace.overhead_pct", 100*(capacity(untraced, untracedSpan)/capacity(closed, span)-1),
		len(untraced)+len(closed))
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pipelineLayers decodes the per-request stages and plan of traced
// search samples into spans and the query.*/planner.*/kernel metrics.
func (r *runner) pipelineLayers(samples []sample) error {
	var (
		n                                    int
		total, index, region, filter, rank   float64
		narrowed, bounded, evaluated, pruned float64
		hits, scored                         float64
		plans                                = map[string]float64{}
	)
	for _, s := range samples {
		if s.kind != "search" || !s.ok {
			continue
		}
		var resp searchResp
		if err := json.Unmarshal(s.body, &resp); err != nil || resp.Stages == nil || resp.Plan == nil {
			return fmt.Errorf("traced search response without stages/plan")
		}
		st := resp.Stages
		n++
		total += float64(st.TotalNanos)
		index += float64(st.IndexNanos)
		region += float64(st.RegionNanos)
		filter += float64(st.FilterNanos)
		rank += float64(st.RankNanos)
		narrowed += float64(st.Narrowed)
		bounded += float64(st.Bounded)
		evaluated += float64(st.Evaluated)
		pruned += float64(st.Pruned)
		hits += float64(len(resp.Hits))
		scored += float64(st.Evaluated - resp.Plan.CacheHits)
		plans[resp.Plan.Name]++
		r.requestSpans(s, st.TotalNanos, []stageNs{
			{"stage.index", st.IndexNanos}, {"stage.region", st.RegionNanos},
			{"stage.filter", st.FilterNanos}, {"stage.rank", st.RankNanos}})
	}
	if n == 0 {
		return fmt.Errorf("no traced search succeeded")
	}
	fn := float64(n)
	ms := func(ns float64) float64 { return ns / fn / 1e6 }
	r.rep.set("query.total_ms", ms(total), n)
	r.rep.set("query.index_ms", ms(index), n)
	r.rep.set("query.region_ms", ms(region), n)
	r.rep.set("query.filter_ms", ms(filter), n)
	r.rep.set("query.rank_ms", ms(rank), n)
	r.rep.set("query.narrowed", narrowed/fn, n)
	r.rep.set("query.bounded", bounded/fn, n)
	r.rep.set("query.evaluated", evaluated/fn, n)
	r.rep.set("query.pruned", pruned/fn, n)
	r.rep.set("query.prune_ratio", ratio(pruned, bounded), n)
	r.rep.set("query.evaluated_per_hit", ratio(evaluated, hits), n)
	for _, p := range []string{"fixed", "label-first", "region-first", "filter-first", "scan"} {
		r.rep.set("planner.share."+p, plans[p]/fn, n)
	}
	r.scoredPerQuery, r.boundedPerQuery = scored/fn, bounded/fn
	self := r.tr.selfTimes()["http.request"]
	r.rep.set("server.http_self_ms", float64(self.perCall())/float64(time.Millisecond), self.spans)
	return nil
}

// stageNs is one pipeline stage's reported duration.
type stageNs struct {
	name string
	ns   int64
}

// requestSpans records a traced request as spans: the client-side
// request, the server's pipeline total inside it, and the chained
// stages inside that. The server reports durations, not timestamps, so
// server.total is centred in the request and the stages end with it.
func (r *runner) requestSpans(s sample, totalNs int64, stages []stageNs) {
	rid := s.reqID
	root := r.tr.add(0, "http.request", s.sent, s.done, rid, 0)
	if totalNs <= 0 {
		return
	}
	slack := s.service() - time.Duration(totalNs)
	start := s.sent.Add(max(0, slack/2))
	end := start.Add(time.Duration(totalNs))
	srvSpan := r.tr.add(root, "server.total", start, end, rid, 0)
	var sum int64
	for _, st := range stages {
		sum += st.ns
	}
	at := end.Add(-time.Duration(sum))
	for _, st := range stages {
		next := at.Add(time.Duration(st.ns))
		r.tr.add(srvSpan, st.name, at, next, rid, 0)
		at = next
	}
}

// writeLayers derives the write-path metrics from the /metrics deltas
// since the traced run began (timed writes plus the probe writes).
func (r *runner) writeLayers(srv *server, before baseline) error {
	after, err := srv.metrics()
	if err != nil {
		return err
	}
	d := after.sub(before.m)
	ms := func(sec float64) float64 { return sec * 1000 }
	qw := d.histogram("bestring_commit_queue_wait_seconds")
	grp := d.histogram("bestring_commit_group_seconds")
	apd := d.histogram("bestring_wal_append_seconds")
	fs := d.histogram("bestring_wal_fsync_seconds")
	muts := d.get("bestring_commit_mutations_total")
	groups := d.get("bestring_commit_groups_total")
	writes := muts + d.get("bestring_import_images_total")
	r.rep.set("commit.queue_wait_ms", ms(qw.mean()), int(qw.count))
	r.rep.set("commit.group_ms", ms(grp.mean()), int(grp.count))
	r.rep.set("commit.mutations_per_group", ratio(muts, groups), int(groups))
	r.rep.set("wal.append_ms", ms(apd.mean()), int(apd.count))
	r.rep.set("wal.fsync_ms", ms(fs.mean()), int(fs.count))
	r.rep.set("wal.fsyncs_per_write", ratio(d.get("bestring_wal_fsyncs_total"), writes), int(writes))
	r.rep.set("wal.bytes_per_write", ratio(d.get("bestring_wal_append_bytes_total"), writes), int(writes))
	// Import and checkpoint counters are cumulative over the server's
	// life, set-up import included.
	r.rep.set("store.checkpoints", after.get("bestring_checkpoints_total"), 1)
	r.rep.set("import.chunks", after.get("bestring_import_chunks_total"), 1)
	imgs := after.get("bestring_import_images_total")
	r.rep.set("import.wal_bytes_per_scene", ratio(after.get("bestring_import_bytes_total"), imgs), int(imgs))
	return nil
}

// replay runs the in-process layer replay on the workload's inputs and
// writes the run's spans.
func (r *runner) replay(corpus []ingest.Scene, qs []searchBody) error {
	var inserts []ingest.Scene
	g := workload.NewGenerator(sceneConfig(r.seed + 3))
	for i := 0; i < replayInserts; i++ {
		inserts = append(inserts, ingest.Scene{ID: fmt.Sprintf("r%07d", i), Image: g.Scene()})
	}
	dsl := dslOf(qs)
	if len(dsl) == 0 {
		hs := newHotSet(newQueryGen(corpus, r.seed+4))
		dsl = dslOf(hs.queries)
	}
	if err := replayLayers(r.tr, r.rep, replayInput{
		corpus: corpus, queries: imagesOf(qs), dsl: dsl, inserts: inserts,
		dataDir: filepath.Join(r.dir, "replay"),
	}); err != nil {
		return err
	}
	us := func(name string) float64 { return r.rep.metrics[name].value }
	r.rep.set("kernel.cpu_ms_per_query",
		(r.scoredPerQuery*us("similarity.evaluate_us")+r.boundedPerQuery*us("similarity.bound_us"))/1000, 1)
	return r.tr.write(filepath.Join(r.dir, "spans.jsonl"))
}
