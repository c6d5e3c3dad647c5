package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"bestring/internal/ingest"
	"bestring/internal/workload"
)

// writeGen produces the write stream: inserts of fresh scenes alternating
// with deletes of the oldest live scene, so the corpus size stays
// constant.
type writeGen struct {
	gen    *workload.Generator
	fifo   []string // live ids, oldest first
	next   int
	scenes map[string]ingest.Scene
	seq    int
}

func newWriteGen(seed int64, live []ingest.Scene) *writeGen {
	w := &writeGen{gen: workload.NewGenerator(sceneConfig(seed)), scenes: map[string]ingest.Scene{}}
	for _, s := range live {
		w.fifo = append(w.fifo, s.ID)
	}
	return w
}

// op describes one generated write: an insert of scene or a delete of id.
type op struct {
	insert bool
	scene  ingest.Scene
	id     string
}

func (w *writeGen) nextOp() op {
	w.seq++
	if w.seq%2 == 1 {
		s := ingest.Scene{ID: fmt.Sprintf("w%07d", w.seq), Image: w.gen.Scene()}
		w.scenes[s.ID] = s
		w.fifo = append(w.fifo, s.ID)
		return op{insert: true, scene: s, id: s.ID}
	}
	id := w.fifo[w.next]
	w.next++
	return op{id: id}
}

// ledger records which writes the server acknowledged, and which are
// uncertain (failed or timed out: either outcome is allowed).
type ledger struct {
	inserted, deleted, uncertain map[string]bool
}

func newLedger() *ledger {
	return &ledger{inserted: map[string]bool{}, deleted: map[string]bool{}, uncertain: map[string]bool{}}
}

// request turns a write op into an HTTP request that books its outcome
// in the ledger. Ledger updates happen on worker goroutines, so they go
// through mu.
func (o op) request(l *ledger, mu *sync.Mutex) request {
	var r request
	if o.insert {
		body, err := json.Marshal(map[string]any{"id": o.scene.ID, "image": o.scene.Image})
		if err != nil {
			panic(err)
		}
		r = request{kind: "write", method: http.MethodPost, path: "/api/v1/images", body: body, rows: 1}
	} else {
		r = request{kind: "write", method: http.MethodDelete, path: "/api/v1/images/" + o.id, rows: 1}
	}
	r.writeID = o.id
	r.onDone = func(code int, _ []byte) bool {
		mu.Lock()
		defer mu.Unlock()
		if o.insert {
			l.inserted[o.id] = true
		} else {
			l.deleted[o.id] = true
		}
		return true
	}
	return r
}

// bookFailures marks the writes of failed samples as uncertain.
func bookFailures(l *ledger, samples []sample) {
	for _, s := range samples {
		if !s.ok && s.writeID != "" {
			l.uncertain[s.writeID] = true
		}
	}
}

// expectedLive computes the ids that must (and must not) exist after
// the writes: base ids plus acked inserts minus acked deletes.
func (l *ledger) expectedLive(base []ingest.Scene) map[string]bool {
	live := map[string]bool{}
	for _, s := range base {
		live[s.ID] = true
	}
	for id := range l.inserted {
		live[id] = true
	}
	for id := range l.deleted {
		delete(live, id)
	}
	return live
}

// probeWrites makes a few acknowledged single writes (inserts of fresh
// scenes, deletes of live ones) just before the crash check, so every
// workload verifies that acked writes survive a SIGKILL and the write
// path's counters move on every workload.
func (r *runner) probeWrites(srv *server, wg *writeGen, l *ledger) {
	mu := new(sync.Mutex)
	for i := 0; i < probeInserts+probeDeletes; i++ {
		var o op
		if i < probeInserts {
			o = wg.nextOp()
			for !o.insert {
				o = wg.nextOp()
			}
		} else {
			o = wg.nextOp()
			for o.insert {
				o = wg.nextOp()
			}
		}
		var hdr map[string]string
		if r.traced {
			hdr = map[string]string{"X-Request-Id": r.requestID()}
		}
		if s := send(srv, o.request(l, mu), hdr, false); !s.ok {
			r.rep.fail("probe write %s failed", o.id)
		}
	}
}

// crashCheck SIGKILLs the server, restarts it on the same directory,
// records the recovery time, and checks the recovered id set against
// the ledger.
func (r *runner) crashCheck(srv *server, base []ingest.Scene, l *ledger) (*server, error) {
	srv.kill()
	start := time.Now()
	srv, err := r.start(srv.dir)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	recovery := time.Since(start).Seconds()
	r.rep.set("store.recovery_s", recovery, 1)
	var ids struct {
		IDs []string `json:"ids"`
	}
	if err := srv.getJSON("/api/v1/images", &ids); err != nil {
		return srv, err
	}
	got := make(map[string]bool, len(ids.IDs))
	for _, id := range ids.IDs {
		got[id] = true
	}
	want := l.expectedLive(base)
	missing, extra := 0, 0
	for id := range want {
		if !got[id] && !l.uncertain[id] {
			missing++
		}
	}
	for id := range got {
		if !want[id] && !l.uncertain[id] {
			extra++
		}
	}
	if missing > 0 || extra > 0 {
		r.rep.fail("after SIGKILL and recovery: %d acked scenes missing, %d deleted or unknown scenes present", missing, extra)
	}
	return srv, nil
}

// liveScenes lists the scenes that should exist per the ledger (for the
// reference after writes; the reference orders by id itself).
func liveScenes(base []ingest.Scene, wg *writeGen, l *ledger) []ingest.Scene {
	live := l.expectedLive(base)
	var out []ingest.Scene
	for _, s := range base {
		if live[s.ID] {
			out = append(out, s)
		}
	}
	for id, s := range wg.scenes {
		if live[id] {
			out = append(out, s)
		}
	}
	return out
}

// writeSchedule builds one write-mixed open-loop schedule: writes at
// writeRate and side searches at sideRate, merged by due time.
func (r *runner) writeSchedule(wg *writeGen, hot *hotSet, l *ledger, mu *sync.Mutex) (schedule, []searchBody) {
	nw := int(writeRate * r.seconds)
	ns := int(sideRate * r.seconds)
	type slot struct {
		at    time.Duration
		write bool
	}
	var slots []slot
	for _, at := range fixedRate(writeRate, nw) {
		slots = append(slots, slot{at, true})
	}
	for _, at := range fixedRate(sideRate, ns) {
		slots = append(slots, slot{at + time.Duration(0.5/sideRate*float64(time.Second)), false})
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].at < slots[j].at })
	sch := schedule{}
	var sideQs []searchBody
	for _, s := range slots {
		sch.offsets = append(sch.offsets, s.at)
		if s.write {
			sch.reqs = append(sch.reqs, wg.nextOp().request(l, mu))
		} else {
			q := hot.next()
			sideQs = append(sideQs, q)
			sch.reqs = append(sch.reqs, searchRequest(q, r.traced))
		}
	}
	return sch, sideQs
}
