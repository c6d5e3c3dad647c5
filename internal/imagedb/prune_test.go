package imagedb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"bestring/internal/core"
	"bestring/internal/workload"
)

// seedPruneDB builds a randomized corpus through the full mutation
// surface — bulk insert, single inserts, object updates and deletes —
// so signature memoisation is exercised on every txn path.
func seedPruneDB(t *testing.T, seed int64, n int) (*DB, *workload.Generator) {
	t.Helper()
	g := workload.NewGenerator(workload.Config{Seed: seed, Vocabulary: 20, Objects: 7})
	items := make([]BulkItem, n/2)
	for i := range items {
		items[i] = BulkItem{ID: fmt.Sprintf("bulk%04d", i), Image: g.Scene()}
	}
	db := NewSharded(4)
	if err := db.BulkInsert(context.Background(), items, 2); err != nil {
		t.Fatal(err)
	}
	for i := n / 2; i < n; i++ {
		if err := db.Insert(fmt.Sprintf("one%04d", i), "", g.Scene()); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a few entries through every update path so replaced entries
	// get fresh column values.
	if err := db.InsertObject("bulk0000", core.Object{Label: "extra", Box: core.NewRect(0, 0, 2, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteObject("bulk0001", firstLabel(t, db, "bulk0001")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("bulk0002"); err != nil {
		t.Fatal(err)
	}
	return db, g
}

// firstLabel returns one object label of the stored image.
func firstLabel(t *testing.T, db *DB, id string) string {
	t.Helper()
	e, ok := db.Get(id)
	if !ok {
		t.Fatalf("entry %q not found", id)
	}
	return e.Image.Objects[0].Label
}

// TestSignatureColumnMatchesEntries pins the signature invariant: every
// installed entry carries a memoised signature (stored.sig) holding
// exactly SignatureOf(entry.BE), across bulk/single/update/delete paths.
func TestSignatureColumnMatchesEntries(t *testing.T) {
	db, _ := seedPruneDB(t, 99, 40)
	snap := db.current.Load()
	total := 0
	for _, sv := range snap.shards {
		if len(sv.scan) != len(sv.entries) {
			t.Fatalf("scan column size %d != entries %d", len(sv.scan), len(sv.entries))
		}
		for id, st := range sv.entries {
			total++
			if st.sig == nil {
				t.Fatalf("no signature for %q", id)
			}
			if want := core.SignatureOf(st.BE); !reflect.DeepEqual(*st.sig, want) {
				t.Fatalf("signature for %q = %+v, want %+v", id, *st.sig, want)
			}
		}
	}
	if total != db.Len() {
		t.Fatalf("checked %d signatures, want %d", total, db.Len())
	}
}

// TestBoundDominatesExactInEngine is the engine-level half of the
// proof-pinning property test: over three seeds, for every stored entry
// and every bound-declaring registered scorer, the bound computed from
// the entry's memoised signature must dominate the exact score the
// scorer returns. Together with the math-level test in
// internal/similarity this guarantees pruning can never drop a true
// result.
func TestBoundDominatesExactInEngine(t *testing.T) {
	for _, seed := range []int64{3, 71, 20010407} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			db, g := seedPruneDB(t, seed, 30)
			queries := []core.Image{
				g.Scene(),
				g.SubsetQuery(g.Scene(), 3),
				g.JitterQuery(g.Scene(), 5),
			}
			snap := db.current.Load()
			for _, name := range ScorerNames() {
				bound, ok := LookupBound(name)
				if !ok {
					continue
				}
				scorer, _ := LookupScorer(name)
				for qi, img := range queries {
					qbe, err := core.Convert(img)
					if err != nil {
						t.Fatal(err)
					}
					qsig := core.SignatureOf(qbe)
					for _, id := range db.IDs() {
						st, _ := snap.lookup(id)
						if st.sig == nil {
							t.Fatalf("no signature for %q", id)
						}
						ub := bound(qsig, *st.sig)
						exact := scorer(img, qbe, st.Entry)
						if ub < exact {
							t.Fatalf("scorer %s query %d entry %s: bound %.9f < exact %.9f",
								name, qi, id, ub, exact)
						}
						if exact < 0 {
							t.Fatalf("scorer %s entry %s: negative score %.9f breaks the Bound contract",
								name, id, exact)
						}
					}
				}
			}
		})
	}
}

// TestPrunedRankingByteIdentical pins the acceptance criterion of the
// refactor: with pruning enabled (the default) the ranking output —
// hits, total and cursor — is byte-identical to the same query with
// pruning disabled, across scorers, K, MinScore, offsets and full
// cursor walks, at several parallelism levels.
func TestPrunedRankingByteIdentical(t *testing.T) {
	ctx := context.Background()
	db, g := seedPruneDB(t, 12345, 80)
	img := g.SubsetQuery(g.Scene(), 4)

	type pageKey struct {
		Hits   []Hit
		Total  int
		Cursor string
	}
	run := func(opts ...QueryOption) pageKey {
		t.Helper()
		page, err := db.Query(ctx, NewQuery(img), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return pageKey{page.Hits, page.Total, page.NextCursor}
	}

	cases := [][]QueryOption{
		{WithK(10)},
		{WithK(1)},
		{WithK(200)}, // K beyond corpus: heap never fills, nothing heap-pruned
		{},           // unbounded: only MinScore pruning could apply
		{WithK(10), WithScorer("invariant")},
		{WithK(10), WithScorer("symbols")},
		{WithK(10), WithScorer("type1")}, // no bound: exact-only either way
		{WithK(10), WithMinScore(0.4)},
		{WithMinScore(0.55)},
		{WithK(5), WithOffset(7)},
		{WithK(10), WithLabelPrefilter(true)},
	}
	for i, opts := range cases {
		for _, par := range []int{0, 1, 3} {
			on := run(append([]QueryOption{WithParallelism(par), WithPruning(true)}, opts...)...)
			off := run(append([]QueryOption{WithParallelism(par), WithPruning(false)}, opts...)...)
			gj, _ := json.Marshal(on)
			wj, _ := json.Marshal(off)
			if !reflect.DeepEqual(on, off) || string(gj) != string(wj) {
				t.Fatalf("case %d parallelism %d: pruned ranking diverged\n  on: %s\n off: %s", i, par, gj, wj)
			}
		}
	}

	// Full cursor walk: every page of the pruned walk must match the
	// unpruned walk (the heap floor interacts with the cursor admission
	// rule; this pins that the pruned path honours it identically).
	walk := func(prune bool) []Hit {
		var all []Hit
		cursor := ""
		for {
			opts := []QueryOption{WithK(7), WithPruning(prune)}
			if cursor != "" {
				opts = append(opts, WithCursor(cursor))
			}
			page, err := db.Query(ctx, NewQuery(img), opts...)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, page.Hits...)
			if page.NextCursor == "" {
				return all
			}
			cursor = page.NextCursor
		}
	}
	on, off := walk(true), walk(false)
	gj, _ := json.Marshal(on)
	wj, _ := json.Marshal(off)
	if string(gj) != string(wj) {
		t.Fatalf("cursor walk diverged:\n  on: %s\n off: %s", gj, wj)
	}
}

// TestStageCountsAndStats pins the observability wiring: per-page stage
// counts are coherent, pruning actually fires on a prunable workload,
// WithPruning(false) reports zero bound work, and the DB's cumulative
// SearchStats add up across queries.
func TestStageCountsAndStats(t *testing.T) {
	ctx := context.Background()
	db, g := seedPruneDB(t, 777, 60)
	img := g.SubsetQuery(g.Scene(), 3)

	before := db.Stats().Search

	page, err := db.Query(ctx, NewQuery(img), WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	sc := page.Stages
	if sc == nil {
		t.Fatal("no stage counts on page")
	}
	if sc.Indexed != db.Len() || sc.Region != sc.Indexed || sc.Narrowed != sc.Indexed {
		t.Fatalf("narrowing counts %+v inconsistent with unfiltered corpus %d", sc, db.Len())
	}
	if sc.Bounded != sc.Narrowed {
		t.Fatalf("bounded %d != narrowed %d for a bound-declaring scorer", sc.Bounded, sc.Narrowed)
	}
	if sc.Evaluated+sc.Pruned != sc.Bounded {
		t.Fatalf("evaluated %d + pruned %d != bounded %d", sc.Evaluated, sc.Pruned, sc.Bounded)
	}
	if sc.Pruned == 0 {
		t.Fatalf("expected pruning on a K=5 query over %d scenes, got none (%+v)", db.Len(), sc)
	}

	off, err := db.Query(ctx, NewQuery(img), WithK(5), WithPruning(false))
	if err != nil {
		t.Fatal(err)
	}
	if off.Stages.Bounded != 0 || off.Stages.Pruned != 0 {
		t.Fatalf("pruning disabled but bound work reported: %+v", off.Stages)
	}
	if off.Stages.Evaluated != off.Stages.Narrowed {
		t.Fatalf("pruning disabled: evaluated %d != narrowed %d", off.Stages.Evaluated, off.Stages.Narrowed)
	}

	// Custom scorer functions are opaque: no bound, everything exact.
	custom, err := db.Query(ctx, NewQuery(img), WithK(5), WithScorerFunc(BEScorer()))
	if err != nil {
		t.Fatal(err)
	}
	if custom.Stages.Bounded != 0 {
		t.Fatalf("WithScorerFunc query reported bound work: %+v", custom.Stages)
	}

	after := db.Stats().Search
	if after.Queries != before.Queries+3 {
		t.Fatalf("queries counter %d, want %d", after.Queries, before.Queries+3)
	}
	wantEval := before.Evaluated + uint64(sc.Evaluated+off.Stages.Evaluated+custom.Stages.Evaluated)
	if after.Evaluated != wantEval {
		t.Fatalf("evaluated counter %d, want %d", after.Evaluated, wantEval)
	}
	if after.Pruned != before.Pruned+uint64(sc.Pruned) {
		t.Fatalf("pruned counter %d, want %d", after.Pruned, before.Pruned+uint64(sc.Pruned))
	}
}

// TestSignatureColumnSurvivesPersistence pins that signatures are
// derived, not stored: a save/load round trip (which carries no
// signature bytes) rebuilds every entry's signature, and pruned rankings
// on the loaded database match the original.
func TestSignatureColumnSurvivesPersistence(t *testing.T) {
	ctx := context.Background()
	db, g := seedPruneDB(t, 31, 40)
	img := g.SubsetQuery(g.Scene(), 3)

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	snap := loaded.current.Load()
	for _, sv := range snap.shards {
		for id, st := range sv.entries {
			if st.sig == nil || !reflect.DeepEqual(*st.sig, core.SignatureOf(st.BE)) {
				t.Fatalf("loaded entry %q: signature not rebuilt", id)
			}
		}
	}
	want, err := db.Query(ctx, NewQuery(img), WithK(10))
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Query(ctx, NewQuery(img), WithK(10))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Hits, want.Hits) {
		t.Fatalf("loaded ranking diverged:\n got %+v\nwant %+v", got.Hits, want.Hits)
	}
	if got.Stages.Pruned == 0 && want.Stages.Pruned > 0 {
		t.Fatalf("pruning inactive after load: %+v vs %+v", got.Stages, want.Stages)
	}
}
