package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"bestring/internal/core"
	"bestring/internal/imagedb"
	"bestring/internal/ingest"
	"bestring/internal/query"
	"bestring/internal/similarity"
)

// searchResp is the subset of a POST /api/v1/search response the
// benchmark reads.
type searchResp struct {
	Hits []struct {
		ID    string  `json:"id"`
		Score float64 `json:"score"`
	} `json:"hits"`
	Total  int                  `json:"total"`
	Stages *imagedb.StageCounts `json:"stages"`
	Plan   *imagedb.QueryPlan   `json:"plan"`
}

// refEntry is one corpus scene with its BE-string, for the brute-force
// reference.
type refEntry struct {
	id  string
	img core.Image
	be  core.BEString
}

func refCorpus(scenes []ingest.Scene) ([]refEntry, error) {
	out := make([]refEntry, len(scenes))
	for i, s := range scenes {
		be, err := core.Convert(s.Image)
		if err != nil {
			return nil, fmt.Errorf("convert %s: %w", s.ID, err)
		}
		out[i] = refEntry{id: s.ID, img: s.Image, be: be}
	}
	return out, nil
}

type refHit struct {
	id    string
	score float64
}

// reference answers a search by brute force: every entry passing the
// predicate (every clause must hold) and the labelled-region filter is
// scored exactly with similarity.Evaluate, ranked by (score desc, id
// asc) and cut at K. It shares none of the engine's narrowing, pruning,
// planner or cache code.
func reference(corpus []refEntry, q searchBody) ([]refHit, int, error) {
	var dsl *query.Query
	if q.DSL != "" {
		parsed, err := query.Parse(q.DSL)
		if err != nil {
			return nil, 0, err
		}
		dsl = &parsed
	}
	qbe, err := core.Convert(*q.Image)
	if err != nil {
		return nil, 0, err
	}
	var hits []refHit
	for i := range corpus {
		e := &corpus[i]
		if dsl != nil && !dsl.Match(e.img) {
			continue
		}
		if q.Region != nil && !inRegion(e.img, *q.Region, q.RegionLabel) {
			continue
		}
		hits = append(hits, refHit{e.id, similarity.Evaluate(qbe, e.be).F})
	}
	total := len(hits)
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].score != hits[j].score {
			return hits[i].score > hits[j].score
		}
		return hits[i].id < hits[j].id
	})
	if q.K > 0 && len(hits) > q.K {
		hits = hits[:q.K]
	}
	return hits, total, nil
}

// inRegion reports whether the image has an icon with the label ("" is
// any) whose box intersects the region.
func inRegion(img core.Image, region core.Rect, label string) bool {
	for _, o := range img.Objects {
		if (label == "" || o.Label == label) && o.Box.Intersects(region) {
			return true
		}
	}
	return false
}

// checkSearch compares a server response body with the reference.
func checkSearch(corpus []refEntry, q searchBody, body []byte) error {
	var got searchResp
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode search response: %w", err)
	}
	want, total, err := reference(corpus, q)
	if err != nil {
		return err
	}
	if got.Total != total {
		return fmt.Errorf("search total %d, reference %d", got.Total, total)
	}
	if len(got.Hits) != len(want) {
		return fmt.Errorf("search returned %d hits, reference %d", len(got.Hits), len(want))
	}
	for i, h := range got.Hits {
		if h.ID != want[i].id || h.Score != want[i].score {
			return fmt.Errorf("hit %d is (%s, %v), reference (%s, %v)",
				i, h.ID, h.Score, want[i].id, want[i].score)
		}
	}
	return nil
}
