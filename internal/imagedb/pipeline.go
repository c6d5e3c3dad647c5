package imagedb

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"strings"
	"sync"
	"time"

	"bestring/internal/core"
	"bestring/internal/obs"
)

// Hit is one result of a composed query.
type Hit struct {
	ID    string  `json:"id"`
	Name  string  `json:"name,omitempty"`
	Score float64 `json:"score"`
	// Where is the satisfied fraction of the spatial-predicate filter;
	// present only when the query has a Where clause.
	Where float64 `json:"where,omitempty"`
	// Full reports that every Where clause held.
	Full bool `json:"full,omitempty"`
}

// Page is one page of query results.
type Page struct {
	Hits []Hit `json:"hits"`
	// Total counts the results matching the query — after filters,
	// MinScore and the cursor, before K/Offset truncation.
	Total int `json:"total"`
	// NextCursor resumes the ranking after the last hit of this page;
	// empty when the ranking is exhausted. The cursor pins this page's
	// epoch, so (while the version stays retained) later pages read the
	// exact same state and can neither skip nor duplicate a hit under
	// concurrent writers.
	NextCursor string `json:"nextCursor,omitempty"`
	// Epoch identifies the immutable version this page was computed from.
	Epoch uint64 `json:"epoch,omitempty"`
	// Stages reports how many candidates each pipeline stage let
	// through for this query — the observability hook for pruning
	// efficacy. Always populated by the pipeline.
	Stages *StageCounts `json:"stages,omitempty"`
	// Plan records the stage order the cost-based planner chose for
	// this query, its selectivity estimates and the query's scorer-cache
	// hit/miss counts (plan.go). Always populated by the pipeline;
	// surfaced by the CLI's -explain and the server's "debug":true.
	Plan *QueryPlan `json:"plan,omitempty"`
}

// StageCounts are the per-stage candidate counts of one executed query:
// how the staged pipeline narrowed the corpus down to the entries that
// actually paid an exact scorer evaluation. Hits/Total/NextCursor are
// byte-identical whatever these counts say; they only describe how much
// work producing them took. Under the cost-based planner the narrowing
// counts follow the EXECUTED order recorded in Page.Plan.Order (e.g. a
// region-first plan reports the region probe's output as Indexed);
// Narrowed — the set entering ranked scoring — is plan-invariant.
type StageCounts struct {
	// Indexed counts candidates after the plan's first narrowing step
	// (the inverted-label narrowing under the fixed order; the full
	// version size when nothing narrows).
	Indexed int `json:"indexed"`
	// Region counts candidates once label and region narrowing both ran
	// (equal to Indexed when the query has no region; under a
	// filter-first plan the region check runs inside the predicate
	// stage, so Region equals Indexed there too).
	Region int `json:"region"`
	// Narrowed counts candidates surviving the spatial-predicate filter
	// — the set entering ranked scoring. Plan-invariant.
	Narrowed int `json:"narrowed"`
	// Bounded counts candidates whose signature upper bound was
	// computed in the refine stage (zero when the scorer declares no
	// bound, pruning is disabled, or the query has no ranked image).
	Bounded int `json:"bounded"`
	// Evaluated counts exact score determinations: scorer runs plus
	// scorer-cache hits (a hit serves the identical exact score; the
	// split is Page.Plan.CacheHits/CacheMisses).
	Evaluated int `json:"evaluated"`
	// Pruned counts candidates rejected on the bound alone: Bounded =
	// Evaluated' + Pruned where Evaluated' is the bounded candidates
	// that went on to exact evaluation. Under parallelism the split
	// between Evaluated and Pruned can vary run to run (it depends on
	// how fast each worker's top-K floor rises); the ranking cannot.
	Pruned int `json:"pruned"`

	// Per-stage wall-clock time in nanoseconds, chained so the four
	// stage timers cover the pipeline body with no gaps; TotalNanos
	// additionally covers scorer resolution and query conversion before
	// stage 1. Omitted from JSON when zero (e.g. pages decoded from old
	// servers). These feed the bestring_query_stage_seconds histograms
	// and the slow-query log, and are the raw selectivity/latency
	// statistics the planned cost-based planner needs.
	IndexNanos  int64 `json:"indexNs,omitempty"`
	RegionNanos int64 `json:"regionNs,omitempty"`
	FilterNanos int64 `json:"filterNs,omitempty"`
	RankNanos   int64 `json:"rankNs,omitempty"`
	TotalNanos  int64 `json:"totalNs,omitempty"`
}

// sinceNanos returns the nanoseconds elapsed since *t and resets *t to
// now, so consecutive stage timers chain without gaps or overlap.
func sinceNanos(t *time.Time) int64 {
	now := time.Now()
	d := now.Sub(*t)
	*t = now
	return int64(d)
}

// recordSpans mirrors one executed query's stage timings onto the
// request trace (when one rides the context), so a slow-query log
// entry shows where inside the pipeline the time went.
func recordSpans(ctx context.Context, start time.Time, sc *StageCounts) {
	tr := obs.FromContext(ctx)
	if tr == nil {
		return
	}
	at := start
	for _, s := range []struct {
		name string
		ns   int64
	}{
		{"stage.index", sc.IndexNanos},
		{"stage.region", sc.RegionNanos},
		{"stage.filter", sc.FilterNanos},
		{"stage.rank", sc.RankNanos},
	} {
		tr.AddSpan(s.name, at, time.Duration(s.ns))
		at = at.Add(time.Duration(s.ns))
	}
}

// candidate is one image that survived the narrowing stages, with its
// spatial-predicate evaluation when the query has a Where clause.
type candidate struct {
	st    *stored
	where float64
	full  bool
}

// Query executes a composed retrieval request against the store. The
// candidate set flows through staged narrowers, cheapest first —
// inverted label index, R-tree region probe, spatial-predicate
// evaluation — and only the survivors reach the ranked top-K scoring
// the engine runs for plain similarity search. Extra options apply to a
// copy, so the Query value can be reused. The ranking is deterministic:
// score descending, id ascending on ties, whatever the shard count or
// parallelism.
//
// The whole pipeline runs against one pinned version of the store: an
// epoch is resolved once (the cursor's epoch when resuming a paginated
// query and that version is still retained, the current version
// otherwise) and no lock is acquired after that.
func (db *DB) Query(ctx context.Context, q *Query, opts ...QueryOption) (*Page, error) {
	page, err := db.execute(ctx, q.clone().apply(opts))
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	return page, nil
}

// iterBatch is the page size QueryIter fetches per cursor step.
const iterBatch = 256

// QueryIter streams the query's results in ranking order. It pages
// through the store with cursors (batches of iterBatch), so memory
// stays O(batch) even when the ranking is unbounded; WithK caps the
// total results yielded. The iterator pins one version of the store
// when it starts and streams every batch from it, so the sequence is a
// consistent point-in-time ranking: concurrent writers can neither
// remove a hit from the stream nor inject one mid-iteration. On error
// the sequence yields a zero Hit with the error and stops.
func (db *DB) QueryIter(ctx context.Context, q *Query, opts ...QueryOption) iter.Seq2[Hit, error] {
	spec := q.clone().apply(opts)
	return func(yield func(Hit, error) bool) {
		snap, cur, err := db.resolve(spec)
		if err != nil {
			yield(Hit{}, fmt.Errorf("query: %w", err))
			return
		}
		iterOn(ctx, db, snap, spec, cur, db.noteSearch)(yield)
	}
}

// iterOn streams a query's results from one pinned version — the shared
// engine behind DB.QueryIter and Snapshot.QueryIter. db supplies the
// scorer cache and planner statistics (nil: both unavailable); cur is
// the decoded resume position of the spec's initial cursor, if any;
// note (optional) receives each executed batch's page so a DB-backed
// iteration feeds the cumulative search counters.
func iterOn(ctx context.Context, db *DB, snap *snapshot, spec *Query, cur *cursorPos, note func(*Page)) iter.Seq2[Hit, error] {
	return func(yield func(Hit, error) bool) {
		s := spec.clone()
		unlimited := s.k == 0
		remaining := s.k
		for {
			step := s.clone()
			step.k = iterBatch
			if !unlimited && remaining < step.k {
				step.k = remaining
			}
			p, err := executeOn(ctx, db, snap, step, cur)
			if err != nil {
				yield(Hit{}, fmt.Errorf("query: %w", err))
				return
			}
			if note != nil {
				note(p)
			}
			for _, h := range p.Hits {
				if !yield(h, nil) {
					return
				}
			}
			if !unlimited {
				if remaining -= len(p.Hits); remaining <= 0 {
					return
				}
			}
			if p.NextCursor == "" {
				return
			}
			c, err := decodeCursor(p.NextCursor)
			if err != nil {
				yield(Hit{}, fmt.Errorf("query: %w", err))
				return
			}
			cur, s.offset = &c, 0
		}
	}
}

// resolve pins the version a query spec should run against — the epoch
// its cursor carries when that version is still retained, the current
// version otherwise — and returns the decoded cursor so the pipeline
// does not parse the token twice. One or two atomic loads, no locks. A
// sticky builder error or an undecodable cursor surfaces here so the
// pipeline never starts on a broken spec.
func (db *DB) resolve(q *Query) (*snapshot, *cursorPos, error) {
	if q.err != nil {
		return nil, nil, q.err
	}
	cur, err := q.decodedCursor()
	if err != nil {
		return nil, nil, err
	}
	if cur != nil && cur.Epoch != 0 {
		if pinned := db.findEpoch(cur.Epoch); pinned != nil {
			return pinned, cur, nil
		}
	}
	return db.current.Load(), cur, nil
}

// execute pins a version and runs the staged pipeline on it. Errors are
// returned unprefixed; the public entry points (Query, Search,
// SearchDSL) add their own context.
func (db *DB) execute(ctx context.Context, q *Query) (*Page, error) {
	snap, cur, err := db.resolve(q)
	if err != nil {
		return nil, err
	}
	page, err := executeOn(ctx, db, snap, q, cur)
	if err == nil {
		db.noteSearch(page)
	}
	return page, err
}

// noteSearch folds one executed page's stage counts and cache outcomes
// into the DB's cumulative filter-and-refine counters (one mutex, so
// readers get a coherent snapshot) and into the registry when metrics
// are enabled.
func (db *DB) noteSearch(page *Page) {
	if page == nil || page.Stages == nil {
		return
	}
	sc := page.Stages
	db.searchMu.Lock()
	db.search.Queries++
	db.search.Narrowed += uint64(sc.Narrowed)
	db.search.Bounded += uint64(sc.Bounded)
	db.search.Evaluated += uint64(sc.Evaluated)
	db.search.Pruned += uint64(sc.Pruned)
	if p := page.Plan; p != nil {
		db.search.CacheHits += uint64(p.CacheHits)
		db.search.CacheMisses += uint64(p.CacheMisses)
	}
	db.searchMu.Unlock()
	if m := db.metrics.Load(); m != nil {
		m.observeQuery(page)
	}
}

// executeOn runs the staged pipeline against one pinned, immutable
// version; db supplies the scorer cache and planner statistics (nil:
// both unavailable); cur is the query's already-decoded cursor (nil
// when none). From here on the query acquires no locks: every stage —
// label narrowing, region probe, predicate evaluation, top-K scoring —
// reads frozen maps and a frozen tree, so the view is consistent by
// construction and concurrent writers cost readers nothing.
func executeOn(ctx context.Context, db *DB, snap *snapshot, q *Query, cur *cursorPos) (*Page, error) {
	if q.err != nil {
		return nil, q.err
	}
	if q.image == nil && q.dsl == nil && q.region == nil {
		return nil, fmt.Errorf("empty query: need an image, a where clause or a region")
	}
	start := time.Now()

	// Resolve the scorer up front so an unknown name fails fast even if
	// no candidate survives the filters. A registry scorer may carry an
	// upper bound, enabling the refine stage below, and may be BE-pure,
	// enabling the scorer cache; an explicit WithScorerFunc scorer is
	// opaque and always evaluates exactly.
	scorer := q.scorer
	var bound Bound
	cacheable := false
	if scorer == nil && (q.image != nil || q.scorerName != "") {
		r, ok := lookupRegistered(q.scorerName)
		if !ok {
			return nil, fmt.Errorf("unknown scorer %q (registered: %s)",
				q.scorerName, strings.Join(ScorerNames(), ", "))
		}
		scorer = r.score
		if !q.noPrune {
			bound = r.bound
		}
		cacheable = r.pure
	}

	var img core.Image
	var queryBE core.BEString
	if q.image != nil {
		img = *q.image
		var err error
		if queryBE, err = core.Convert(img); err != nil {
			return nil, err
		}
	}

	// Stage 1 inputs. A Where clause narrows to images containing at
	// least one of its labels (an image satisfying any clause must),
	// otherwise an explicit LabelPrefilter narrows to images sharing an
	// icon label with the query image.
	mark := time.Now()
	var labels []string
	prefilter := false
	switch {
	case q.dsl != nil:
		for label := range q.dsl.Labels() {
			labels = append(labels, label)
		}
		prefilter = true
	case q.image != nil && q.labelPrefilter:
		labels = queryLabels(img)
		prefilter = true
	}

	// Plan — the cost-based planner picks the narrowing order from
	// snapshot statistics before any per-entry work; WithPlanner(false)
	// pins the fixed label → region → predicate order. Every plan
	// assembles the exact same candidate set (see plan.go), so the
	// branches below differ in work, never in results.
	var shapes *shapeStats
	if db != nil {
		shapes = &db.shapes
	}
	ep := planQuery(snap, q, labels, prefilter, shapes)
	plan := ep.Plan
	stages := &StageCounts{}

	var cands0 []*stored
	if ep.regionFirst {
		// Region-first: probe the (estimated tiny) region set, then
		// recover the label narrowing as a membership filter over it.
		ids := snap.regionIDSet(*q.region, q.regionLabel)
		cands0 = make([]*stored, 0, len(ids))
		for id := range ids {
			if st, ok := snap.lookup(id); ok {
				cands0 = append(cands0, st)
			}
		}
		stages.Indexed = len(cands0)
		stages.IndexNanos = sinceNanos(&mark)
		if prefilter {
			kept := cands0[:0]
			for _, st := range cands0 {
				if snap.hasAnyLabel(st.ID, labels) {
					kept = append(kept, st)
				}
			}
			cands0 = kept
		}
		stages.Region = len(cands0)
		stages.RegionNanos = sinceNanos(&mark)
	} else {
		// Label (or scan) first. A skipped postings union degrades to a
		// full scan; the label restriction is then recovered inline for
		// image-only prefilters and by the Where evaluation otherwise
		// (an image with none of the clause's labels satisfies nothing).
		if prefilter && !ep.skipLabels {
			cands0 = snap.collect(labels, prefilter)
		} else {
			cands0 = snap.collect(nil, false)
			if ep.skipLabels && prefilter && q.dsl == nil {
				kept := cands0[:0]
				for _, st := range cands0 {
					if snap.hasAnyLabel(st.ID, labels) {
						kept = append(kept, st)
					}
				}
				cands0 = kept
			}
		}
		stages.Indexed = len(cands0)
		stages.IndexNanos = sinceNanos(&mark)

		// Region filter — unless the plan defers it past the predicate
		// (filter-first) or proved it a no-op (region ⊇ corpus bounds).
		if q.region != nil && !ep.filterFirst && !ep.skipRegion {
			kept := cands0[:0]
			if ep.regionMember {
				for _, st := range cands0 {
					if snap.shardFor(st.ID).labels[q.regionLabel][st.ID] {
						kept = append(kept, st)
					}
				}
			} else {
				ids := snap.regionIDSet(*q.region, q.regionLabel)
				for _, st := range cands0 {
					if ids[st.ID] {
						kept = append(kept, st)
					}
				}
			}
			cands0 = kept
		}
		stages.Region = len(cands0)
		stages.RegionNanos = sinceNanos(&mark)
	}

	// Predicate stage — spatial-predicate evaluation. With a ranked
	// component the clause is a filter (default: every constraint must
	// hold); without one the satisfied fraction becomes the ranking
	// score.
	filterIn := len(cands0)
	cands := make([]candidate, 0, len(cands0))
	var whereByID map[string]candidate
	if q.dsl != nil {
		min := q.whereMin
		if min < 0 {
			if q.image != nil {
				min = 1
			} else {
				min = 0 // any positive fraction, the SearchDSL contract
			}
		}
		whereByID = make(map[string]candidate, len(cands0))
		for i, st := range cands0 {
			if i&1023 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			frac, full := q.dsl.Eval(st.Image)
			if frac <= 0 || frac < min {
				continue
			}
			c := candidate{st: st, where: frac, full: full}
			cands = append(cands, c)
			whereByID[st.ID] = c
		}
		// The label stage narrowed on the clause's labels; an explicit
		// LabelPrefilter additionally requires sharing an icon label
		// with the query image.
		if q.image != nil && q.labelPrefilter {
			qset := make(map[string]bool)
			for _, l := range queryLabels(img) {
				qset[l] = true
			}
			kept := cands[:0]
			for _, c := range cands {
				for _, o := range c.st.Image.Objects {
					if qset[o.Label] {
						kept = append(kept, c)
						break
					}
				}
			}
			cands = kept
		}
		// Feed the observed pass-rate back into the planner's decaying
		// per-shape table (only meaningful when the clause actually
		// filtered a non-empty input).
		if shapes != nil && filterIn > 0 {
			shapes.note(q.dsl.String(), float64(len(cands))/float64(filterIn))
		}
	} else {
		for _, st := range cands0 {
			cands = append(cands, candidate{st: st})
		}
	}
	stages.FilterNanos = sinceNanos(&mark)

	// Filter-first plans deferred the region filter to here: a direct
	// geometric check per predicate survivor replaces the broad R-tree
	// probe (see regionMatches for the equivalence).
	if ep.filterFirst && q.region != nil {
		kept := cands[:0]
		for _, c := range cands {
			if regionMatches(&c.st.Image, *q.region, q.regionLabel) {
				kept = append(kept, c)
			}
		}
		cands = kept
		stages.RegionNanos = sinceNanos(&mark)
	}

	stages.Narrowed = len(cands)
	if len(cands) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stages.TotalNanos = int64(time.Since(start))
		recordSpans(ctx, start, stages)
		return &Page{Hits: []Hit{}, Epoch: snap.epoch, Stages: stages, Plan: plan}, nil
	}

	// Stage 4 — ranked scoring over the survivors, on the same bounded
	// top-K heap machinery as plain Search. The ranking score is the
	// scorer when the query has an image, the satisfied fraction when
	// spatial satisfaction itself is the ranking, and 0 for region-only
	// queries (ties break by id, so those list in id order).

	// Scorer cache: a BE-pure registry scorer's exact score is a pure
	// function of (scorer, query BE, entry version), so the DB-wide memo
	// can serve it byte-identically; the *stored pointer in the key is
	// the entry version (see scorercache.go). The query-side half of the
	// key is computed once here.
	var cache *scorerCache
	var qkey string
	if cacheable && q.image != nil && !q.noCache && db != nil {
		if cache = db.cache.Load(); cache != nil {
			name := q.scorerName
			if name == "" {
				name = DefaultScorerName
			}
			qkey = cacheQueryKey(name, queryBE)
		}
	}
	met := (*dbMetrics)(nil)
	if db != nil {
		met = db.metrics.Load()
	}

	workers := q.parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	// Heap capacity covers the page plus the offset it skips, clamped to
	// the candidate count so a client cannot drive preallocation.
	heapK := 0
	if q.k > 0 {
		heapK = q.k + q.offset
		if heapK > len(cands) {
			heapK = len(cands)
		}
	}

	// Stage 4a — the refine stage's filter half. With a bound-declaring
	// scorer and a ranked image, each candidate's signature upper bound
	// is computed first (O(|labels|), no dynamic program); the exact
	// scorer runs only when the bound could still place the candidate.
	// Pruning never changes results — see the admission notes inside the
	// worker loop; each skip is taken only when the evaluated path would
	// provably have made the same decision.
	useBound := bound != nil && q.image != nil
	var qsig core.Signature
	if useBound {
		qsig = core.SignatureOf(queryBE)
	}

	heaps := make([]*topK, workers)
	counts := make([]int, workers)
	boundedN := make([]int, workers)
	evaluatedN := make([]int, workers)
	prunedN := make([]int, workers)
	cacheHitN := make([]int, workers)
	cacheMissN := make([]int, workers)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		h := newTopK(heapK)
		heaps[w] = h
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				c := cands[i]
				if useBound {
					boundedN[w]++
					ub := bound(qsig, c.st.signature())
					if ub < q.minScore {
						// exact <= ub < MinScore: evaluating would have
						// dropped the candidate before it was counted.
						prunedN[w]++
						continue
					}
					if q.minScore <= 0 && h.full() && worse(Result{ID: c.st.ID, Score: ub}, h.min()) {
						// The bound already loses to this worker's top-K
						// floor, so the exact result (<= ub) would be
						// rejected by h.add on the same comparison. It
						// would still have been counted in Total: its
						// score is >= 0 >= MinScore, and it is strictly
						// worse than the cursor position because the
						// floor — admitted past the cursor check — is.
						// (With MinScore > 0 the exact score could fall
						// below the threshold and change Total, so this
						// shortcut is taken only when the threshold
						// cannot filter; the MinScore bound above still
						// prunes.)
						counts[w]++
						prunedN[w]++
						continue
					}
				}
				evaluatedN[w]++
				var score float64
				switch {
				case q.image != nil:
					if cache != nil {
						// The bound check above already ran, so a hit skips
						// the whole dynamic program, not just part of it.
						k := cacheKey{query: qkey, entry: c.st}
						var t0 time.Time
						if met != nil {
							t0 = time.Now()
						}
						s, ok := cache.get(k)
						if met != nil {
							met.observeCacheLookup(time.Since(t0))
						}
						if ok {
							cacheHitN[w]++
							score = s
						} else {
							cacheMissN[w]++
							score = scorer(img, queryBE, c.st.Entry)
							cache.put(k, score)
						}
					} else {
						score = scorer(img, queryBE, c.st.Entry)
					}
				case q.dsl != nil:
					score = c.where
				}
				r := Result{ID: c.st.ID, Name: c.st.Name, Score: score}
				if r.Score < q.minScore {
					continue
				}
				if cur != nil && !worse(r, Result{ID: cur.ID, Score: cur.Score}) {
					continue
				}
				counts[w]++
				h.add(r)
			}
		}(w)
	}
	var cancelled error
feed:
	for i := range cands {
		select {
		case jobs <- i:
		case <-ctx.Done():
			cancelled = ctx.Err()
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if cancelled != nil {
		return nil, cancelled
	}

	total := 0
	for w := range counts {
		total += counts[w]
		stages.Bounded += boundedN[w]
		stages.Evaluated += evaluatedN[w]
		stages.Pruned += prunedN[w]
		plan.CacheHits += cacheHitN[w]
		plan.CacheMisses += cacheMissN[w]
	}
	ranked := mergeTopK(heaps, heapK)

	// Pagination: drop the offset, truncate to the page.
	if q.offset >= len(ranked) {
		ranked = ranked[:0]
	} else {
		ranked = ranked[q.offset:]
	}
	if q.k > 0 && len(ranked) > q.k {
		ranked = ranked[:q.k]
	}

	page := &Page{Hits: make([]Hit, len(ranked)), Total: total, Epoch: snap.epoch, Stages: stages, Plan: plan}
	for i, r := range ranked {
		h := Hit{ID: r.ID, Name: r.Name, Score: r.Score}
		if q.dsl != nil {
			if c, ok := whereByID[r.ID]; ok {
				h.Where, h.Full = c.where, c.full
			}
		}
		page.Hits[i] = h
	}
	if q.k > 0 && len(page.Hits) == q.k && total > q.offset+q.k {
		page.NextCursor = encodeCursor(ranked[len(ranked)-1], snap.epoch)
	}
	stages.RankNanos = sinceNanos(&mark)
	stages.TotalNanos = int64(time.Since(start))
	recordSpans(ctx, start, stages)
	return page, nil
}
