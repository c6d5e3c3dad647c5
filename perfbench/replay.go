package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"bestring/internal/core"
	"bestring/internal/imagedb"
	"bestring/internal/ingest"
	"bestring/internal/lcs"
	"bestring/internal/query"
	"bestring/internal/similarity"
)

// replayInput is a workload's own inputs, replayed in-process against
// each layer's public functions once the server is gone (so the replay
// never overlaps a timed run).
type replayInput struct {
	corpus  []ingest.Scene // the scenes the workload loaded
	queries []core.Image   // the query images the workload sent
	dsl     []string       // predicate expressions derived from the corpus
	inserts []ingest.Scene // fresh scenes for the single-insert replay
	dataDir string         // scratch directory for the in-process import
}

// replayBatches is how many times each layer's batch runs; the reported
// per-call time is the median batch's.
const replayBatches = 5

// replayPairs caps the (query, entry) pairs the kernel replay scores.
const replayPairs = 4096

// replayImportRows is the corpus prefix the in-process import loads.
const replayImportRows = 10000

// replayInserts is the number of single inserts the MVCC replay times.
const replayInserts = 200

// timeBatches runs fn (which makes calls layer calls) replayBatches
// times under a parent span, one child span per batch, and returns the
// median per-call time.
func timeBatches(tr *tracer, parent int, name string, calls int, fn func()) time.Duration {
	per := make([]time.Duration, 0, replayBatches)
	for i := 0; i < replayBatches; i++ {
		start := time.Now()
		fn()
		end := time.Now()
		tr.add(parent, name, start, end, "", calls)
		per = append(per, end.Sub(start)/time.Duration(calls))
	}
	sort.Slice(per, func(i, j int) bool { return per[i] < per[j] })
	return per[len(per)/2]
}

// sink keeps replayed results observable so no call is optimised away.
var sink int

// replayLayers times every layer's public entry points on the
// workload's inputs and records the per-layer replay metrics.
func replayLayers(tr *tracer, rep *report, in replayInput) error {
	root := tr.add(0, "replay", time.Now(), time.Now(), "", 0)
	defer func() { tr.finish(root, time.Now()) }()
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	// Convert/signature over the corpus (capped to a sample).
	imgs := make([]core.Image, 0, 2000)
	for i := 0; i < len(in.corpus) && len(imgs) < cap(imgs); i++ {
		imgs = append(imgs, in.corpus[i].Image)
	}
	bes := make([]core.BEString, len(imgs))
	for i, img := range imgs {
		be, err := core.Convert(img)
		if err != nil {
			return fmt.Errorf("replay convert: %w", err)
		}
		bes[i] = be
	}
	d := timeBatches(tr, root, "core.Convert", len(imgs), func() {
		for _, img := range imgs {
			be, _ := core.Convert(img)
			sink += len(be.X)
		}
	})
	rep.set("core.convert_us", us(d), replayBatches*len(imgs))
	sigs := make([]core.Signature, len(bes))
	d = timeBatches(tr, root, "core.SignatureOf", len(bes), func() {
		for i, be := range bes {
			sigs[i] = core.SignatureOf(be)
		}
	})
	rep.set("core.signature_us", us(d), replayBatches*len(bes))

	// Kernel over (query, entry) pairs: each query against a stride of
	// the corpus sample.
	type pair struct{ q, e int }
	var qbes []core.BEString
	var qsigs []core.Signature
	for _, q := range in.queries {
		be, err := core.Convert(q)
		if err != nil {
			return fmt.Errorf("replay convert query: %w", err)
		}
		qbes = append(qbes, be)
		qsigs = append(qsigs, core.SignatureOf(be))
	}
	if len(qbes) == 0 || len(bes) == 0 {
		return errors.New("replay: no queries or corpus")
	}
	perQuery := max(1, replayPairs/len(qbes))
	var pairs []pair
	for qi := range qbes {
		for j := 0; j < perQuery && len(pairs) < replayPairs; j++ {
			pairs = append(pairs, pair{qi, (qi*7919 + j*104729) % len(bes)})
		}
	}
	d = timeBatches(tr, root, "lcs.Length", 2*len(pairs), func() {
		for _, p := range pairs {
			sink += lcs.Length(qbes[p.q].X, bes[p.e].X) + lcs.Length(qbes[p.q].Y, bes[p.e].Y)
		}
	})
	rep.set("lcs.length_us", us(d), replayBatches*2*len(pairs))
	d = timeBatches(tr, root, "similarity.Evaluate", len(pairs), func() {
		for _, p := range pairs {
			sink += similarity.Evaluate(qbes[p.q], bes[p.e]).LX
		}
	})
	rep.set("similarity.evaluate_us", us(d), replayBatches*len(pairs))
	d = timeBatches(tr, root, "similarity.UpperBound", len(pairs), func() {
		for _, p := range pairs {
			if similarity.UpperBound(qsigs[p.q], sigs[p.e]) > 0.5 {
				sink++
			}
		}
	})
	rep.set("similarity.bound_us", us(d), replayBatches*len(pairs))

	// Predicate parsing.
	const parseReps = 50
	d = timeBatches(tr, root, "query.Parse", parseReps*len(in.dsl), func() {
		for r := 0; r < parseReps; r++ {
			for _, s := range in.dsl {
				q, _ := query.Parse(s)
				sink += len(q.Constraints)
			}
		}
	})
	rep.set("query.parse_us", us(d), replayBatches*parseReps*len(in.dsl))

	// NDJSON decoding of the corpus stream (a prefix).
	stream := ndjson(in.corpus[:min(len(in.corpus), 5000)])
	rows := min(len(in.corpus), 5000)
	d = timeBatches(tr, root, "ingest.NDJSON.Next", rows, func() {
		r := ingest.NDJSON(bytes.NewReader(stream))
		for {
			s, err := r.Next()
			if err != nil {
				break
			}
			sink += len(s.ID)
		}
	})
	rep.set("ingest.decode_us", us(d), replayBatches*rows)

	// MVCC single-insert cost at the workload's corpus size, no WAL.
	db := imagedb.NewSharded(max(16, runtime.GOMAXPROCS(0)))
	items := make([]imagedb.BulkItem, len(in.corpus))
	for i, s := range in.corpus {
		items[i] = imagedb.BulkItem{ID: s.ID, Name: s.Name, Image: s.Image}
	}
	if err := db.BulkInsert(context.Background(), items, 0); err != nil {
		return fmt.Errorf("replay bulk insert: %w", err)
	}
	items = nil
	ins := in.inserts[:min(len(in.inserts), replayInserts)]
	durs := make([]float64, 0, len(ins))
	for _, s := range ins {
		start := time.Now()
		if err := db.Insert(s.ID, s.Name, s.Image); err != nil {
			return fmt.Errorf("replay insert: %w", err)
		}
		end := time.Now()
		tr.add(root, "imagedb.DB.Insert", start, end, "", 1)
		durs = append(durs, float64(end.Sub(start))/float64(time.Millisecond))
	}
	sort.Float64s(durs)
	med, _ := quantileOf(durs, 0.5)
	rep.set("mvcc.insert_ms", med, len(durs))
	db = nil
	runtime.GC()

	// In-process durable import of a corpus prefix (fsync always).
	rows = min(len(in.corpus), replayImportRows)
	stream = ndjson(in.corpus[:rows])
	if err := os.RemoveAll(in.dataDir); err != nil {
		return err
	}
	st, err := imagedb.OpenStore(in.dataDir, imagedb.StoreOptions{})
	if err != nil {
		return fmt.Errorf("replay open store: %w", err)
	}
	start := time.Now()
	stats, err := st.Import(context.Background(), ingest.NDJSON(bytes.NewReader(stream)), imagedb.ImportOptions{})
	end := time.Now()
	tr.add(root, "imagedb.Store.Import", start, end, "", rows)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("replay import: %w", err)
	}
	if stats.Images != uint64(rows) {
		return fmt.Errorf("replay import loaded %d of %d rows", stats.Images, rows)
	}
	rep.set("import.inproc_rows_per_s", float64(rows)/end.Sub(start).Seconds(), rows)
	return os.RemoveAll(in.dataDir)
}
