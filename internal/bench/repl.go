package bench

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"time"

	"bestring/internal/imagedb"
	"bestring/internal/repl"
	"bestring/internal/wal"
	"bestring/internal/workload"
)

// ReplicationCatchup is experiment E14 (the replication experiment, not
// from the paper): how fast a follower ingests a primary's history, and
// how far it trails under a paced write load.
//
// Catch-up compares two ways of replaying the same n-record WAL into a
// fresh replica store: "local" tails the primary's log in-process and
// applies batches directly (no network, the replay-machinery ceiling),
// "catchup" runs the real follower loop against the primary's HTTP
// stream. Both replicas run fsync=never so the ratio isolates the wire
// protocol's overhead (decode, HTTP chunking, batching) rather than
// sampling the disk's fsync jitter twice — the acceptance bar is
// catchup >= 0.8x local.
//
// The steady-state phase then paces `paced` single-record writes onto
// the primary, one per `pace`, sampling the follower's lag (primary
// durable LSN minus follower applied LSN) after each write. Lag is
// reported in records; it bundles the primary's fsync-interval
// durability delay with the stream/apply latency, which is exactly the
// staleness a replica read observes.
func ReplicationCatchup(sizes []int, paced int, pace time.Duration) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Caption: "replication: follower catch-up vs local replay, steady-state lag under paced writes",
		Header:  []string{"records", "local rec/s", "catchup rec/s", "ratio", "lag mean", "lag max"},
	}
	for _, n := range sizes {
		if err := replicationPoint(t, n, paced, pace); err != nil {
			return nil, fmt.Errorf("E14: %w", err)
		}
	}
	return t, nil
}

// replicationPoint runs one E14 row end to end.
func replicationPoint(t *Table, n, paced int, pace time.Duration) error {
	// Same rationale as E11b: compare replay protocols, not collector
	// schedules.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	ctx := context.Background()
	gen := workload.NewGenerator(workload.Config{
		Seed: DefaultSeed + 14, Vocabulary: 32, Objects: 8,
	})
	pool := gen.Dataset(64)

	// Primary: fsync=interval so seeding n individual records (each one
	// WAL frame, the stream's unit) stays cheap; the explicit Sync below
	// makes the whole history durable — the precondition for shipping it.
	pdir, err := os.MkdirTemp("", "bestring-e14-p-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(pdir)
	ps, err := imagedb.OpenStore(pdir, imagedb.StoreOptions{
		Fsync:           imagedb.FsyncInterval,
		FsyncInterval:   5 * time.Millisecond,
		CheckpointBytes: -1,
		CommitBatch:     1,
	})
	if err != nil {
		return err
	}
	defer ps.Close()
	for i := 0; i < n; i++ {
		if err := ps.Insert(fmt.Sprintf("img%08d", i), "", pool[i%len(pool)]); err != nil {
			return err
		}
	}
	if err := ps.Sync(); err != nil {
		return err
	}
	last := ps.DurableLSN()

	// Local replay baseline: tail the primary's log in-process, apply in
	// follower-sized batches. This is the machinery ceiling — everything
	// the follower does except the HTTP transport. Best of two runs, so
	// one unlucky scheduling quantum does not set the row (same below).
	localDur, err := localReplay(ctx, ps, last)
	if err != nil {
		return err
	}
	if again, err := localReplay(ctx, ps, last); err != nil {
		return err
	} else if again < localDur {
		localDur = again
	}

	// Real follower over HTTP.
	primary := repl.NewPrimary(ps, 50*time.Millisecond)
	mux := http.NewServeMux()
	primary.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	catchupDur, err := httpCatchup(ctx, srv.URL, last)
	if err != nil {
		return err
	}

	fdir, err := os.MkdirTemp("", "bestring-e14-f-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(fdir)
	fs, err := imagedb.OpenStore(fdir, imagedb.StoreOptions{
		Fsync: imagedb.FsyncNever, CheckpointBytes: -1, Replica: true,
	})
	if err != nil {
		return err
	}
	defer fs.Close()
	follower, err := repl.NewFollower(fs, srv.URL, 0)
	if err != nil {
		return err
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	runDone := make(chan error, 1)
	start := time.Now()
	go func() { runDone <- follower.Run(runCtx) }()
	if err := waitApplied(fs, last, runDone); err != nil {
		return err
	}
	if d := time.Since(start); d < catchupDur {
		catchupDur = d
	}

	// Steady state: paced single-record writes, lag sampled after each.
	var lagSum, lagMax, samples uint64
	for i := 0; i < paced; i++ {
		if err := ps.Insert(fmt.Sprintf("pace%08d", i), "", pool[i%len(pool)]); err != nil {
			return err
		}
		time.Sleep(pace)
		durable, applied := ps.DurableLSN(), fs.AppliedLSN()
		if applied < durable {
			lag := durable - applied
			lagSum += lag
			if lag > lagMax {
				lagMax = lag
			}
		}
		samples++
	}
	// Convergence check: the follower must drain the paced tail too.
	if err := ps.Sync(); err != nil {
		return err
	}
	if err := waitApplied(fs, ps.DurableLSN(), runDone); err != nil {
		return err
	}
	cancel()
	<-runDone

	localRate := float64(last) / localDur.Seconds()
	catchupRate := float64(last) / catchupDur.Seconds()
	ratio := 0.0
	if localRate > 0 {
		ratio = catchupRate / localRate
	}
	t.AddRow(FmtInt(n),
		fmt.Sprintf("%.0f", localRate), fmt.Sprintf("%.0f", catchupRate),
		fmt.Sprintf("%.2fx", ratio),
		fmt.Sprintf("%.1f", float64(lagSum)/float64(samples)), FmtInt(int(lagMax)))
	return nil
}

// httpCatchup runs one throwaway follower against the primary's stream
// and times how long it takes to apply `last` records into a fresh
// replica store.
func httpCatchup(ctx context.Context, primaryURL string, last uint64) (time.Duration, error) {
	dir, err := os.MkdirTemp("", "bestring-e14-c-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	fs, err := imagedb.OpenStore(dir, imagedb.StoreOptions{
		Fsync: imagedb.FsyncNever, CheckpointBytes: -1, Replica: true,
	})
	if err != nil {
		return 0, err
	}
	defer fs.Close()
	follower, err := repl.NewFollower(fs, primaryURL, 0)
	if err != nil {
		return 0, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	runDone := make(chan error, 1)
	start := time.Now()
	go func() { runDone <- follower.Run(runCtx) }()
	if err := waitApplied(fs, last, runDone); err != nil {
		return 0, err
	}
	d := time.Since(start)
	cancel()
	<-runDone
	return d, nil
}

// localReplay applies the primary's first `last` records into a fresh
// replica store by tailing the log directly, batch size matching the
// follower's default. Returns the elapsed wall time.
func localReplay(ctx context.Context, ps *imagedb.Store, last uint64) (time.Duration, error) {
	dir, err := os.MkdirTemp("", "bestring-e14-l-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	rs, err := imagedb.OpenStore(dir, imagedb.StoreOptions{
		Fsync: imagedb.FsyncNever, CheckpointBytes: -1, Replica: true,
	})
	if err != nil {
		return 0, err
	}
	defer rs.Close()
	tailer := ps.TailWAL(0)
	defer tailer.Close()
	start := time.Now()
	// Same per-record machinery as the follower (raw frame in, decode,
	// raw frame out) so the catchup/local ratio isolates the HTTP hop.
	batch := make([]wal.Record, 0, repl.DefaultBatchMax)
	frames := make([][]byte, 0, repl.DefaultBatchMax)
	for applied := uint64(0); applied < last; {
		lsn, raw, err := tailer.NextRaw(ctx)
		if err != nil {
			return 0, err
		}
		rec, _, err := wal.ReadFrameRaw(bytes.NewReader(raw))
		if err != nil {
			return 0, err
		}
		batch = append(batch, rec)
		frames = append(frames, append([]byte(nil), raw...))
		if len(batch) == cap(batch) || lsn == last {
			if err := rs.ApplyReplicatedFrames(batch, frames); err != nil {
				return 0, err
			}
			applied = lsn
			batch, frames = batch[:0], frames[:0]
		}
	}
	return time.Since(start), nil
}

// waitApplied polls the follower store until it reaches lsn, failing
// fast if the follower loop dies first.
func waitApplied(fs *imagedb.Store, lsn uint64, runDone <-chan error) error {
	deadline := time.Now().Add(60 * time.Second)
	for fs.AppliedLSN() < lsn {
		select {
		case err := <-runDone:
			return fmt.Errorf("follower stopped at lsn %d (want %d): %v", fs.AppliedLSN(), lsn, err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at lsn %d (want %d)", fs.AppliedLSN(), lsn)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}
