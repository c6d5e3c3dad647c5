package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"bestring/internal/core"
	"bestring/internal/ingest"
	"bestring/internal/query"
	"bestring/internal/workload"
)

// Every input the server receives is generated here from the run seed:
// scenes from workload.Generator with a 24-icon vocabulary and 8 objects
// per scene, queries as perturbations of corpus scenes.

// sceneConfig is the generator configuration of every corpus.
func sceneConfig(seed int64) workload.Config {
	return workload.Config{Seed: seed, Vocabulary: 24}
}

// genScenes generates n scenes with ids prefix%07d, starting at index from.
func genScenes(g *workload.Generator, prefix string, from, n int) []ingest.Scene {
	out := make([]ingest.Scene, n)
	for i := range out {
		out[i] = ingest.Scene{ID: fmt.Sprintf("%s%07d", prefix, from+i), Image: g.Scene()}
	}
	return out
}

// ndjson encodes scenes as the POST /api/v1/import wire format.
func ndjson(scenes []ingest.Scene) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range scenes {
		if err := enc.Encode(s); err != nil {
			panic(err) // core.Image always encodes
		}
	}
	return b.Bytes()
}

// searchBody is a POST /api/v1/search request.
type searchBody struct {
	Image       *core.Image `json:"image,omitempty"`
	DSL         string      `json:"dsl,omitempty"`
	Region      *core.Rect  `json:"region,omitempty"`
	RegionLabel string      `json:"regionLabel,omitempty"`
	K           int         `json:"k"`
	Debug       bool        `json:"debug,omitempty"`
}

// searchK is the result depth of every generated search.
const searchK = 10

// encode renders the body; debug adds "debug":true for traced runs.
func (b searchBody) encode(debug bool) []byte {
	b.Debug = debug
	out, err := json.Marshal(b)
	if err != nil {
		panic(err)
	}
	return out
}

// queryGen derives queries from a corpus with its own seeded stream.
type queryGen struct {
	corpus []ingest.Scene
	gen    *workload.Generator
	rng    *rand.Rand
}

func newQueryGen(corpus []ingest.Scene, seed int64) *queryGen {
	return &queryGen{
		corpus: corpus,
		gen:    workload.NewGenerator(sceneConfig(seed)),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// scan returns a fresh partial, jittered copy of a random corpus scene
// ranked against the whole corpus: nothing narrows, so the planner
// scans and the kernel plus the signature bound do the work.
func (q *queryGen) scan() searchBody {
	base := q.corpus[q.rng.Intn(len(q.corpus))].Image
	img := q.gen.JitterQuery(q.gen.SubsetQuery(base, 4), 3)
	return searchBody{Image: &img, K: searchK}
}

// narrowSide is the side of the square query region, centred on the
// anchor object. A fixed size keeps the R-tree probe's cost the same
// for every query.
const narrowSide = 30

// A narrow query is kept only when its costs fall in fixed bands,
// counted by brute force over (up to) the first 10k corpus scenes, so
// every query costs about the same and runs on different seeds
// compare: narrowMin..narrowMax scenes per 10k pass its predicate and
// labelled region, and probeMin..probeMax of all icons intersect its
// region (what the R-tree probe visits; regions near the canvas centre
// visit more).
const (
	narrowMin, narrowMax = 100, 300
	probeMin, probeMax   = 0.18, 0.22
)

// narrow returns an image query combined with an "A left-of B"
// predicate and a labelled region, all taken from one corpus scene so
// that scene (and its near neighbours) match.
func (q *queryGen) narrow() searchBody {
	for {
		base := q.corpus[q.rng.Intn(len(q.corpus))].Image
		objs := base.Objects
		var pairs [][2]core.Object
		for _, a := range objs {
			for _, b := range objs {
				if a.Label != b.Label && query.Holds(query.LeftOf, a.Box, b.Box) {
					pairs = append(pairs, [2]core.Object{a, b})
				}
			}
		}
		if len(pairs) == 0 {
			continue
		}
		p := pairs[q.rng.Intn(len(pairs))]
		anchor := p[q.rng.Intn(2)]
		cx, cy := (anchor.Box.X0+anchor.Box.X1)/2, (anchor.Box.Y0+anchor.Box.Y1)/2
		x0 := min(max(0, cx-narrowSide/2), base.XMax-narrowSide)
		y0 := min(max(0, cy-narrowSide/2), base.YMax-narrowSide)
		region := core.NewRect(x0, y0, x0+narrowSide, y0+narrowSide)
		img := q.gen.JitterQuery(q.gen.SubsetQuery(base, 4), 2)
		body := searchBody{
			Image:       &img,
			DSL:         p[0].Label + " left-of " + p[1].Label,
			Region:      &region,
			RegionLabel: anchor.Label,
			K:           searchK,
		}
		if q.inBands(body) {
			return body
		}
	}
}

// inBands reports whether a narrow query's filter survivors and region
// probe size fall in their bands.
func (q *queryGen) inBands(b searchBody) bool {
	dsl, err := query.Parse(b.DSL)
	if err != nil {
		panic(err) // generated from corpus labels
	}
	sample := q.corpus[:min(len(q.corpus), 10000)]
	survivors, probed, icons := 0, 0, 0
	for _, s := range sample {
		if dsl.Match(s.Image) && inRegion(s.Image, *b.Region, b.RegionLabel) {
			survivors++
		}
		for _, o := range s.Image.Objects {
			icons++
			if o.Box.Intersects(*b.Region) {
				probed++
			}
		}
	}
	perTenK := survivors * 10000 / len(sample)
	frac := float64(probed) / float64(icons)
	return perTenK >= narrowMin && perTenK <= narrowMax && frac >= probeMin && frac <= probeMax
}

// hotSet is a fixed set of narrow queries drawn Zipf-skewed, so a small
// working set of (query, entry) pairs repeats and the scorer cache can
// serve it. The skew is mild (P(k) ∝ (8+k)^-1.1: the hottest query is
// ~6% of the traffic, the coldest ~0.6%), so the mix averages over the
// whole set and two seeds offer comparable work.
type hotSet struct {
	queries []searchBody
	zipf    *rand.Zipf
}

// hotSetSize is the number of distinct queries in a hot set.
const hotSetSize = 64

func newHotSet(q *queryGen) *hotSet {
	h := &hotSet{zipf: rand.NewZipf(q.rng, 1.1, 8, hotSetSize-1)}
	for i := 0; i < hotSetSize; i++ {
		h.queries = append(h.queries, q.narrow())
	}
	return h
}

func (h *hotSet) next() searchBody { return h.queries[h.zipf.Uint64()] }

// fixedRate returns n send offsets evenly spaced at rate per second.
func fixedRate(rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}
