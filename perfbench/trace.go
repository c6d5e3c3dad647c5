package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans of one request share requestID;
// parent links a span to the span that caused it (0 for a root).
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent,omitempty"`
	Name      string `json:"name"`
	StartNs   int64  `json:"start_ns"` // since the run's trace epoch
	EndNs     int64  `json:"end_ns"`
	RequestID string `json:"request_id,omitempty"`
	// Calls is the number of layer calls a replay span covers (one span
	// per batch of calls; per-call spans would cost more than the calls).
	Calls int `json:"calls,omitempty"`
}

// tracer keeps spans in memory; write dumps them at the end of a run.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time, requestID string, calls int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		StartNs: int64(start.Sub(t.epoch)), EndNs: int64(end.Sub(t.epoch)),
		RequestID: requestID, Calls: calls})
	return id
}

// finish sets the end of a span opened before its children.
func (t *tracer) finish(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = int64(end.Sub(t.epoch))
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfStat is the summed self time of every span with one name.
type selfStat struct {
	self  time.Duration
	spans int
	calls int
}

// perCall is the mean self time per call (per span when no calls are
// recorded).
func (s selfStat) perCall() time.Duration {
	n := s.calls
	if n == 0 {
		n = s.spans
	}
	if n == 0 {
		return 0
	}
	return s.self / time.Duration(n)
}

// selfTimes computes each span name's self time: a span's duration
// minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]selfStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]selfStat{}
	for _, s := range t.spans {
		st := out[s.Name]
		st.self += time.Duration(s.EndNs-s.StartNs) - covered(s, children[s.ID])
		st.spans++
		st.calls += s.Calls
		out[s.Name] = st
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals (clipped to the parent) covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}
