package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"bestring/internal/core"
	"bestring/internal/imagedb"
)

func testImage(n int) core.Image {
	return core.NewImage(10, 10,
		core.Object{Label: "A", Box: core.NewRect(0, 0, 1, 1)},
		core.Object{Label: fmt.Sprintf("B%d", n%5), Box: core.NewRect(2+n%3, 2, 4+n%3, 4)},
	)
}

// newPrimary opens a primary store and serves its replication feed.
func newPrimary(t *testing.T, opts imagedb.StoreOptions) (*imagedb.Store, *Primary, *httptest.Server) {
	t.Helper()
	store, err := imagedb.OpenStore(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	p := NewPrimary(store, 50*time.Millisecond) // fast heartbeats for tests
	mux := http.NewServeMux()
	p.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return store, p, srv
}

func newFollowerStore(t *testing.T, dir string) *imagedb.Store {
	t.Helper()
	store, err := imagedb.OpenStore(dir, imagedb.StoreOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// waitLSN polls until the store's applied LSN reaches want.
func waitLSN(t *testing.T, store *imagedb.Store, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for store.AppliedLSN() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: applied=%d want=%d", store.AppliedLSN(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func stateBytes(t *testing.T, store *imagedb.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReplicationEndToEnd(t *testing.T) {
	primary, _, srv := newPrimary(t, imagedb.StoreOptions{Fsync: imagedb.FsyncAlways})
	for i := 0; i < 40; i++ {
		if err := primary.Insert(fmt.Sprintf("img%d", i), "n", testImage(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Delete("img7"); err != nil {
		t.Fatal(err)
	}

	fstore := newFollowerStore(t, t.TempDir())
	defer fstore.Close()
	fl, err := NewFollower(fstore, srv.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- fl.Run(ctx) }()

	// Catch-up: the backlog streams from sealed + open segments.
	waitLSN(t, fstore, primary.AppliedLSN())
	if got, want := stateBytes(t, fstore), stateBytes(t, primary); !bytes.Equal(got, want) {
		t.Fatal("follower state differs from primary after catch-up")
	}

	// Live tail: new writes (including group frames) arrive while
	// connected.
	for i := 40; i < 60; i++ {
		if err := primary.Insert(fmt.Sprintf("img%d", i), "n", testImage(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitLSN(t, fstore, primary.AppliedLSN())
	if got, want := stateBytes(t, fstore), stateBytes(t, primary); !bytes.Equal(got, want) {
		t.Fatal("follower state differs from primary after live writes")
	}
	st := fl.Status()
	if !st.Connected || st.AppliedLSN != primary.AppliedLSN() {
		t.Fatalf("status = %+v", st)
	}
	if st.PrimaryDurableLSN < st.AppliedLSN {
		t.Fatalf("observed primary durable %d < applied %d", st.PrimaryDurableLSN, st.AppliedLSN)
	}
	// Reads on the follower serve the replicated state.
	if !fstore.Has("img41") || fstore.Has("img7") {
		t.Fatal("follower reads do not reflect the replicated history")
	}

	cancel()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run after cancel = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

// TestFollowerKillPointsResume is the crash/restart property test: a
// follower killed at randomized points — mid-stream, between batches —
// and restarted (store reopened from disk, as after a real crash) always
// resumes from its own last applied LSN and converges with no gaps or
// duplicates. Three seeds, truncation-sweep style.
func TestFollowerKillPointsResume(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			primary, _, srv := newPrimary(t, imagedb.StoreOptions{Fsync: imagedb.FsyncAlways})
			n := 0
			insert := func(k int) {
				for i := 0; i < k; i++ {
					if err := primary.Insert(fmt.Sprintf("img%04d", n), "n", testImage(n)); err != nil {
						t.Fatal(err)
					}
					n++
				}
			}
			insert(60)

			dir := t.TempDir()
			var applied uint64
			for attempt := 0; attempt < 12 && applied < primary.AppliedLSN(); attempt++ {
				fstore := newFollowerStore(t, dir)
				if got := fstore.AppliedLSN(); got != applied {
					t.Fatalf("attempt %d: reopened store lost progress: applied=%d, want %d", attempt, got, applied)
				}
				fl, err := NewFollower(fstore, srv.URL, 1+rng.Intn(32))
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				runDone := make(chan error, 1)
				go func() { runDone <- fl.Run(ctx) }()
				// Kill at a random point: sometimes instantly, sometimes
				// after some progress, sometimes after full catch-up.
				time.Sleep(time.Duration(rng.Intn(40)) * time.Millisecond)
				cancel()
				if err := <-runDone; err != nil {
					t.Fatalf("attempt %d: Run = %v", attempt, err)
				}
				applied = fstore.AppliedLSN()
				if err := fstore.Close(); err != nil {
					t.Fatal(err)
				}
				// Occasionally write more on the primary between follower
				// lives, so resumes also cover a moving target.
				if rng.Intn(2) == 0 {
					insert(5 + rng.Intn(10))
				}
			}
			// Final run to full convergence.
			fstore := newFollowerStore(t, dir)
			defer fstore.Close()
			fl, err := NewFollower(fstore, srv.URL, 0)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go fl.Run(ctx)
			waitLSN(t, fstore, primary.AppliedLSN())
			if got, want := stateBytes(t, fstore), stateBytes(t, primary); !bytes.Equal(got, want) {
				t.Fatal("converged follower state differs from primary")
			}
			// No gaps, no duplicates: the follower's own log replays clean
			// (wal continuity is verified by OpenStore on the next line) and
			// ends exactly at the primary's LSN.
			if err := fstore.Close(); err != nil {
				t.Fatal(err)
			}
			re := newFollowerStore(t, dir)
			defer re.Close()
			if re.AppliedLSN() != primary.AppliedLSN() {
				t.Fatalf("replayed follower lsn %d != primary %d", re.AppliedLSN(), primary.AppliedLSN())
			}
		})
	}
}

func TestFollowerForeignLogRefused(t *testing.T) {
	_, _, srv := newPrimary(t, imagedb.StoreOptions{Fsync: imagedb.FsyncAlways})
	// A store with its own local history (written as a primary, no
	// recorded primary marker) must refuse to sync.
	dir := t.TempDir()
	own, err := imagedb.OpenStore(dir, imagedb.StoreOptions{Fsync: imagedb.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := own.Insert("local", "n", testImage(1)); err != nil {
		t.Fatal(err)
	}
	if err := own.Close(); err != nil {
		t.Fatal(err)
	}
	fstore := newFollowerStore(t, dir)
	defer fstore.Close()
	fl, err := NewFollower(fstore, srv.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Run(context.Background()); !errors.Is(err, ErrDiverged) {
		t.Fatalf("Run with foreign log = %v, want ErrDiverged", err)
	}
	if !fstore.Has("local") {
		t.Fatal("refusal must leave the local state untouched")
	}
}

func TestFollowerWrongPrimaryRefused(t *testing.T) {
	primaryA, _, srvA := newPrimary(t, imagedb.StoreOptions{Fsync: imagedb.FsyncAlways})
	if err := primaryA.Insert("a", "n", testImage(1)); err != nil {
		t.Fatal(err)
	}
	_, _, srvB := newPrimary(t, imagedb.StoreOptions{Fsync: imagedb.FsyncAlways})

	dir := t.TempDir()
	fstore := newFollowerStore(t, dir)
	fl, err := NewFollower(fstore, srvA.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go fl.Run(ctx)
	waitLSN(t, fstore, primaryA.AppliedLSN())
	cancel()
	if err := fstore.Close(); err != nil {
		t.Fatal(err)
	}
	// Same store, different primary: the recorded marker must refuse.
	fstore = newFollowerStore(t, dir)
	defer fstore.Close()
	fl, err = NewFollower(fstore, srvB.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Run(context.Background()); !errors.Is(err, ErrDiverged) {
		t.Fatalf("Run against wrong primary = %v, want ErrDiverged", err)
	}
}

func TestStreamRejectsAheadAndPruned(t *testing.T) {
	store, _, srv := newPrimary(t, imagedb.StoreOptions{
		Fsync: imagedb.FsyncAlways, SegmentBytes: 512, CheckpointBytes: -1, CommitBatch: 1,
	})
	for i := 0; i < 20; i++ {
		if err := store.Insert(fmt.Sprintf("img%d", i), "n", testImage(i)); err != nil {
			t.Fatal(err)
		}
	}
	get := func(after uint64) int {
		resp, err := http.Get(fmt.Sprintf("%s%s?after=%d&follower=x", srv.URL, StreamPath, after))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		return resp.StatusCode
	}
	// Ahead of the primary: one history cannot produce this.
	if code := get(store.AppliedLSN() + 5); code != http.StatusConflict {
		t.Fatalf("ahead stream = %d, want 409", code)
	}
	// Prune, then ask for the pruned range.
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if store.OldestLSN() <= 1 {
		t.Skip("checkpoint retained everything; nothing pruned on this layout")
	}
	if code := get(0); code != http.StatusGone {
		t.Fatalf("pruned stream = %d, want 410", code)
	}
}

func TestRetentionFloorFollowsAcks(t *testing.T) {
	store, p, srv := newPrimary(t, imagedb.StoreOptions{
		Fsync: imagedb.FsyncAlways, SegmentBytes: 512, CheckpointBytes: -1, CommitBatch: 1,
	})
	for i := 0; i < 20; i++ {
		if err := store.Insert(fmt.Sprintf("img%d", i), "n", testImage(i)); err != nil {
			t.Fatal(err)
		}
	}
	ack := func(id string, lsn uint64) {
		resp, err := http.Post(
			fmt.Sprintf("%s%s?follower=%s&lsn=%d", srv.URL, AckPath, url.QueryEscape(id), lsn), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("ack = %d", resp.StatusCode)
		}
	}
	ack("slow", 4)
	ack("fast", 18)
	if floor := p.minAckedLSN(); floor != 4 {
		t.Fatalf("floor = %d, want 4 (slowest follower)", floor)
	}
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Segments past the slow follower's ack survive the checkpoint.
	if oldest := store.OldestLSN(); oldest > 5 {
		t.Fatalf("oldest=%d: checkpoint pruned a connected follower's backlog", oldest)
	}
	infos := p.Followers()
	if len(infos) != 2 {
		t.Fatalf("followers = %+v", infos)
	}
}
