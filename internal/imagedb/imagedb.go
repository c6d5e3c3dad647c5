// Package imagedb is the image-database substrate of the demonstration
// retrieval system (paper section 5): a concurrency-safe store of symbolic
// images indexed by their 2D BE-strings, with ranked top-k similarity
// search, pluggable scoring methods (BE-LCS, transform-invariant BE-LCS, or
// the clique-based type-i baselines) and JSON persistence.
//
// The store is MVCC: every version of the database — sharded entry maps,
// inverted label indexes and the spatial R-tree — is an immutable
// snapshot published through one atomic pointer with a monotonically
// increasing epoch. Mutations serialise on a writer mutex, build the
// next version copy-on-write (sharing all untouched structure) and
// publish it in a single store; queries pin an epoch once and run the
// whole staged pipeline with zero lock acquisitions on a frozen,
// consistent view. See snapshot.go and DESIGN.md section 6.
//
// Ranked search scores the pinned version on a worker pool into
// per-worker bounded top-K min-heaps (O(n log K), O(K) space per worker)
// and merges them into the exact ranking a full sort would produce; see
// topk.go and DESIGN.md section 4.
package imagedb

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"bestring/internal/baseline/typesim"
	"bestring/internal/core"
	"bestring/internal/similarity"
)

// Entry is one stored image: the symbolic image plus its precomputed 2D
// BE-string index.
type Entry struct {
	ID    string        `json:"id"`
	Name  string        `json:"name,omitempty"`
	Image core.Image    `json:"image"`
	BE    core.BEString `json:"be"`
}

// Errors returned by DB operations.
var (
	ErrNotFound  = errors.New("image not found")
	ErrDuplicate = errors.New("duplicate image id")
	ErrEmptyID   = errors.New("empty image id")
)

// DB is an in-memory symbolic-image database, partitioned into shards
// and versioned MVCC-style: reads run lock-free against the atomically
// published current snapshot, writes serialise on writeMu and publish
// the next copy-on-write version. The zero value is not ready; use New
// or NewSharded. All methods are safe for concurrent use.
type DB struct {
	// writeMu serialises mutations. Readers never take it (or any other
	// lock): they load `current` once and traverse frozen data.
	writeMu sync.Mutex
	current atomic.Pointer[snapshot]
	// history retains recent versions so pagination cursors can re-pin
	// the epoch their first page ran against; see epochList.
	history atomic.Pointer[epochList]
	retain  int // guarded by writeMu
	// seq issues global insertion sequence numbers; entries order by seq
	// to reconstruct insertion order across shards.
	seq atomic.Uint64

	// Cumulative filter-and-refine counters (see SearchStats), folded in
	// once per executed query under one mutex — not per-field atomics —
	// so Stats() always reads a coherent combination: a scrape can never
	// observe the narrowed total of query N+1 next to the query count of
	// N. The lock is taken once per query, not per candidate.
	searchMu sync.Mutex
	search   SearchStats

	// metrics is nil until EnableMetrics; an atomic pointer so metrics
	// can be enabled while the DB is already serving.
	metrics atomic.Pointer[dbMetrics]

	// cache memoises exact scores of BE-pure registry scorers across
	// queries (nil: disabled); swapped whole by SetScorerCacheCapacity.
	// See scorercache.go for the pointer-keyed exact invalidation.
	cache atomic.Pointer[scorerCache]
	// cacheEvictions counts LRU evictions across cache reconfigurations
	// (the cache object holds a pointer to it).
	cacheEvictions atomic.Uint64
	// shapes is the planner's decaying per-query-shape predicate
	// pass-rate table (plan.go).
	shapes shapeStats
}

// New returns an empty database with the default shard count.
func New() *DB { return NewSharded(0) }

// NewSharded returns an empty database with an explicit shard count
// (n <= 0 means the default: GOMAXPROCS, floored at 16).
func NewSharded(n int) *DB {
	if n <= 0 {
		n = defaultShards()
	}
	db := &DB{retain: DefaultSnapshotRetention}
	first := emptySnapshot(n)
	db.current.Store(first)
	db.history.Store(&epochList{snaps: []*snapshot{first}})
	db.cache.Store(newScorerCache(DefaultScorerCacheCapacity, &db.cacheEvictions))
	return db
}

// Epoch returns the epoch of the current version — the value a query
// issued now would pin. It increases by one per published mutation.
func (db *DB) Epoch() uint64 { return db.current.Load().epoch }

// spatialID keys one icon of one image in the R-tree. Labels cannot
// contain NUL (they come from validated images), so the join is unambiguous.
func spatialID(imageID, label string) string { return imageID + "\x00" + label }

// splitSpatialID undoes spatialID.
func splitSpatialID(id string) (imageID, label string) {
	for i := 0; i < len(id); i++ {
		if id[i] == 0 {
			return id[:i], id[i+1:]
		}
	}
	return id, ""
}

// Insert converts the image to its 2D BE-string and stores it under id.
func (db *DB) Insert(id, name string, img core.Image) error {
	if id == "" {
		return ErrEmptyID
	}
	be, err := core.Convert(img)
	if err != nil {
		return fmt.Errorf("insert %q: %w", id, err)
	}
	return db.insertConverted(id, name, img, be)
}

// insertConverted installs an entry whose BE-string is already computed —
// the tail of Insert, split out so the durable store (which converts once
// during pre-log validation) does not pay conversion twice.
func (db *DB) insertConverted(id, name string, img core.Image, be core.BEString) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	cur := db.current.Load()
	if _, exists := cur.lookup(id); exists {
		return fmt.Errorf("insert %q: %w", id, ErrDuplicate)
	}
	m := beginTxn(cur)
	m.add(&stored{
		Entry: Entry{ID: id, Name: name, Image: img.Clone(), BE: be},
		seq:   db.seq.Add(1),
	})
	db.publish(m)
	return nil
}

// Delete removes the image with the given id.
func (db *DB) Delete(id string) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	cur := db.current.Load()
	st, exists := cur.lookup(id)
	if !exists {
		return fmt.Errorf("delete %q: %w", id, ErrNotFound)
	}
	m := beginTxn(cur)
	m.remove(st)
	db.publish(m)
	return nil
}

// Has reports whether an image with the given id is stored — existence
// without Get's deep copy of the entry. Lock-free.
func (db *DB) Has(id string) bool {
	_, ok := db.current.Load().lookup(id)
	return ok
}

// Get returns a copy of the entry with the given id. Lock-free.
func (db *DB) Get(id string) (Entry, bool) {
	st, ok := db.current.Load().lookup(id)
	if !ok {
		return Entry{}, false
	}
	return copyEntry(&st.Entry), true
}

// Len returns the number of stored images in the current version.
func (db *DB) Len() int { return db.current.Load().count }

// IDs returns the stored ids in insertion order.
func (db *DB) IDs() []string { return db.current.Load().orderedIDsMatching(nil) }

// InsertObject adds an object to a stored image, reindexing it.
func (db *DB) InsertObject(id string, o core.Object) error {
	return db.updateImage(id, func(img core.Image) core.Image {
		return img.WithObject(o)
	})
}

// DeleteObject removes a labelled object from a stored image, reindexing.
func (db *DB) DeleteObject(id, label string) error {
	var missing bool
	err := db.updateImage(id, func(img core.Image) core.Image {
		out, found := img.WithoutObject(label)
		missing = !found
		return out
	})
	if err != nil {
		return err
	}
	if missing {
		return fmt.Errorf("delete object %q from %q: %w", label, id, ErrNotFound)
	}
	return nil
}

// updateImage applies fn to the stored image and reindexes; the update is
// rejected if the result no longer converts. The entry is replaced, never
// mutated: published snapshots hold *stored pointers, so an entry must
// stay immutable once any version references it (copy-on-write).
func (db *DB) updateImage(id string, fn func(core.Image) core.Image) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	cur := db.current.Load()
	st, ok := cur.lookup(id)
	if !ok {
		return fmt.Errorf("update %q: %w", id, ErrNotFound)
	}
	img := fn(st.Image.Clone())
	be, err := core.Convert(img)
	if err != nil {
		return fmt.Errorf("update %q: %w", id, err)
	}
	next := &stored{
		Entry: Entry{ID: id, Name: st.Name, Image: img, BE: be},
		seq:   st.seq,
	}
	m := beginTxn(cur)
	m.replace(st, next)
	db.publish(m)
	return nil
}

func copyEntry(e *Entry) Entry {
	return Entry{ID: e.ID, Name: e.Name, Image: e.Image.Clone(), BE: e.BE.Clone()}
}

// Scorer grades a database entry against a query; higher is more similar.
// The query is supplied both as image and as precomputed BE-string so
// scorers pay conversion once per search, not per entry.
type Scorer func(query core.Image, queryBE core.BEString, e Entry) float64

// BEScorer ranks by the paper's modified-LCS similarity (harmonic score).
func BEScorer() Scorer {
	return func(_ core.Image, queryBE core.BEString, e Entry) float64 {
		return similarity.Evaluate(queryBE, e.BE).Key()
	}
}

// InvariantScorer ranks by the best BE-LCS score across the given
// transforms of the query (nil means all eight of the dihedral group).
func InvariantScorer(transforms []core.Transform) Scorer {
	return func(_ core.Image, queryBE core.BEString, e Entry) float64 {
		return similarity.EvaluateInvariant(queryBE, e.BE, transforms).Key()
	}
}

// TypeSimScorer ranks by the clique-based type-i similarity, normalised by
// the query object count — the 2-D string family baseline.
func TypeSimScorer(level typesim.Level) Scorer {
	return func(query core.Image, _ core.BEString, e Entry) float64 {
		return typesim.NormalizedScore(typesim.Similarity(query, e.Image, level), query)
	}
}

// SymbolsOnlyScorer is the ablation scorer: BE-LCS with dummies stripped.
func SymbolsOnlyScorer() Scorer {
	return func(_ core.Image, queryBE core.BEString, e Entry) float64 {
		return similarity.EvaluateSymbolsOnly(queryBE, e.BE).Key()
	}
}

// Result is one ranked search hit.
type Result struct {
	ID    string  `json:"id"`
	Name  string  `json:"name,omitempty"`
	Score float64 `json:"score"`
}

// sortResults orders results best first: score descending, id ascending
// on ties — the canonical deterministic result order.
func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return worse(rs[j], rs[i]) })
}

// SearchOptions parameterise Search.
type SearchOptions struct {
	// K limits the number of results (0 means all). K > 0 enables the
	// bounded-heap accumulation path: O(n log K) instead of O(n log n).
	K int
	// Scorer ranks entries; default BEScorer().
	Scorer Scorer
	// MinScore filters results scoring strictly below the threshold (a
	// result scoring exactly MinScore is kept). Applied during heap
	// accumulation, before a candidate can occupy a top-K slot.
	MinScore float64
	// Parallelism bounds the scoring workers (0 means GOMAXPROCS).
	Parallelism int
	// LabelPrefilter restricts scoring to images sharing at least one icon
	// label with the query (via the inverted label index). Images that
	// share nothing would score near zero anyway; skipping them trades
	// exact tail ordering for throughput on large collections.
	LabelPrefilter bool
}

// queryLabels lists the distinct icon labels of the query image.
func queryLabels(query core.Image) []string {
	out := make([]string, 0, len(query.Objects))
	seen := make(map[string]bool, len(query.Objects))
	for _, o := range query.Objects {
		if !seen[o.Label] {
			seen[o.Label] = true
			out = append(out, o.Label)
		}
	}
	return out
}

// Search ranks the stored images against the query image, best first.
// Ties break by id so results are deterministic: for a given (query, K,
// MinScore) the ranking is byte-identical whatever the shard count or
// Parallelism. The context cancels in-flight scoring.
//
// Deprecated: Search is the image-only special case of the composable
// pipeline; it remains as a thin wrapper over DB.Query and returns
// byte-identical results. New code should build a Query.
func (db *DB) Search(ctx context.Context, query core.Image, opts SearchOptions) ([]Result, error) {
	spec := &Query{
		image:          &query,
		whereMin:       -1,
		scorer:         opts.Scorer,
		k:              max(opts.K, 0), // the seed engine treated K < 0 as "all"
		minScore:       opts.MinScore,
		parallelism:    opts.Parallelism,
		labelPrefilter: opts.LabelPrefilter,
	}
	page, err := db.execute(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	out := make([]Result, len(page.Hits))
	for i, h := range page.Hits {
		out[i] = Result{ID: h.ID, Name: h.Name, Score: h.Score}
	}
	return out, nil
}
