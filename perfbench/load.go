package main

import (
	"context"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// request is one HTTP call the load generator sends.
type request struct {
	kind   string // "search", "write", "import"
	method string
	path   string
	body   []byte
	// rows is the scenes a write or import request carries (1 for a
	// single write), so throughput can be counted in rows.
	rows int
	// writeID is the scene a single write inserts or deletes.
	writeID string
	// onDone, when set, inspects the response: it runs on the worker
	// goroutine after the request's latency is taken and reports
	// whether the response is acceptable.
	onDone func(status int, body []byte) bool
}

// sample is the outcome of one request.
type sample struct {
	kind string
	rows int
	due  time.Time // open loop: scheduled send time; closed loop: send time
	sent time.Time // when a worker picked the request up
	done time.Time
	ok   bool
	// writeID is the request's writeID, so a failed write can be booked
	// as uncertain.
	writeID string
	// reqID is the X-Request-Id a traced request carried.
	reqID string
	// body is kept for traced runs, which decode per-request stages.
	body []byte
}

// latency is the time from the request's due time to its response: in
// an open loop it includes any wait behind a stalled predecessor.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// service is the time from send to response, the part the server and
// the loopback connection account for.
func (s sample) service() time.Duration { return s.done.Sub(s.sent) }

// requestTimeout bounds one request; a request that exceeds it counts
// as failed.
const requestTimeout = 30 * time.Second

// send executes one request on the worker's goroutine.
func send(srv *server, r request, hdr map[string]string, keepBody bool) sample {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	smp := sample{kind: r.kind, rows: r.rows, writeID: r.writeID, sent: time.Now()}
	code, body, err := srv.do(ctx, r.method, r.path, r.body, hdr)
	smp.done = time.Now()
	smp.reqID = hdr["X-Request-Id"]
	smp.ok = err == nil && code >= 200 && code < 300
	if smp.ok && r.onDone != nil {
		smp.ok = r.onDone(code, body)
	}
	if keepBody {
		smp.body = body
	}
	return smp
}

// schedule is a fixed open-loop arrival schedule: request i is due at
// start + offsets[i].
type schedule struct {
	offsets []time.Duration
	reqs    []request
}

// openLoopResult is an open-loop phase's samples plus the generator's
// own lateness (how late each request was handed to a worker queue)
// and the backlog of due-but-unstarted requests when the schedule ended.
type openLoopResult struct {
	samples    []sample
	genLag     []time.Duration
	backlogEnd int
	backlogMid int
	span       time.Duration
}

// openLoop sends the schedule's requests at their due times over at
// most workers concurrent connections. A request waiting for a free
// worker keeps its due time, so a stall is charged to every request it
// delays (no coordinated omission).
func openLoop(srv *server, sch schedule, workers int, hdr func(i int) map[string]string, keepBody bool) openLoopResult {
	n := len(sch.reqs)
	res := openLoopResult{samples: make([]sample, n), genLag: make([]time.Duration, n)}
	queue := make(chan int, n) // sized to the schedule: the generator never blocks
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				var h map[string]string
				if hdr != nil {
					h = hdr(i)
				}
				smp := send(srv, sch.reqs[i], h, keepBody)
				smp.due = start.Add(sch.offsets[i])
				res.samples[i] = smp
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := start.Add(sch.offsets[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.genLag[i] = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	if n > 0 {
		res.span = sch.offsets[n-1]
		res.backlogEnd = backlogAt(res.samples, start.Add(res.span))
		res.backlogMid = backlogAt(res.samples, start.Add(res.span/2))
	}
	return res
}

// backlogAt counts requests due at or before t that no worker had
// started by t.
func backlogAt(samples []sample, t time.Time) int {
	n := 0
	for _, s := range samples {
		if !s.due.After(t) && s.sent.After(t) {
			n++
		}
	}
	return n
}

// valid reports whether the open loop kept up with its schedule: the
// backlog at the end may not exceed the workers in flight nor have
// grown since mid-run.
func (r openLoopResult) valid(workers int) bool {
	return r.backlogEnd <= workers || r.backlogEnd <= r.backlogMid
}

// closedLoop runs workers clients that each send their next request as
// soon as the previous one completes, for dur. next and hdr are called
// under a lock, so request generation stays deterministic in order.
func closedLoop(srv *server, workers int, dur time.Duration, next func() request, hdr func() map[string]string, keepBody bool) ([]sample, time.Duration) {
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				mu.Lock()
				r := next()
				var h map[string]string
				if hdr != nil {
					h = hdr()
				}
				mu.Unlock()
				smp := send(srv, r, h, keepBody)
				smp.due = smp.sent
				mu.Lock()
				out = append(out, smp)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// quantileOf returns the nearest-rank q-quantile of sorted values and
// the number of samples lying strictly beyond that rank.
func quantileOf(sorted []float64, q float64) (float64, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	idx = max(0, min(idx, len(sorted)-1))
	return sorted[idx], len(sorted) - 1 - idx
}

// latenciesMS returns the samples' due-time latencies in ms, sorted; a
// failed request counts as +Inf (it missed every latency limit).
func latenciesMS(samples []sample, kind string) []float64 {
	var out []float64
	for _, s := range samples {
		if s.kind != kind {
			continue
		}
		if !s.ok {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, float64(s.latency())/float64(time.Millisecond))
	}
	sort.Float64s(out)
	return out
}

// newClient returns an HTTP client with at most conns connections to
// the server, so the load generator never offers more concurrency than the
// machine has threads.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}
