// Command server exposes the 2D BE-string image database as a JSON REST
// API — the headless counterpart of cmd/demo, suitable for embedding the
// retrieval system in a larger application.
//
// Endpoints (resource routes answer under both /api and /api/v1):
//
//	GET    /healthz                           liveness: snapshot epoch, entry and
//	                                          goroutine counts (+ WAL/checkpoint
//	                                          stats with -data-dir)
//	GET    /metrics                           Prometheus text exposition: query
//	                                          stage histograms, WAL/commit/
//	                                          replication instruments, HTTP
//	                                          counters
//	GET    /api/images                        list stored ids
//	POST   /api/images                        insert {"id","name","image"}
//	GET    /api/images/{id}                   fetch one entry
//	DELETE /api/images/{id}                   remove one entry
//	POST   /api/v1/search                     composable query: any mix of
//	                                          {"image","dsl","region","regionLabel",
//	                                          "scorer",k,offset,"cursor",minScore,
//	                                          whereMin,parallelism,labelPrefilter},
//	                                          or a concurrent batch {"queries":[...]};
//	                                          "consistent":true pins the whole
//	                                          request to one snapshot epoch
//	POST   /api/search                        v0 ranked search (alias of the pipeline)
//	GET    /api/search/dsl?q=A+left-of+B&k=5  v0 spatial-predicate search (alias)
//	GET    /api/region?x0=&y0=&x1=&y1=&label= v0 R-tree icon lookup (alias)
//	GET    /repl/v1/stream?after=&follower=   primary: WAL replication stream
//	POST   /repl/v1/ack?follower=&lsn=        primary: follower progress ack
//
// Usage:
//
//	server [-addr :8081] [-data-dir DIR [-fsync always|interval|never]
//	       [-segment-bytes N] [-commit-window 1ms] [-commit-batch 128]
//	       [-replicate-from URL]]
//	       [-dbfile db.json] [-seed 0 -count 0] [-shards 0]
//	       [-parallelism 0] [-slow-query 0] [-pprof-addr ""]
//
// Observability: GET /metrics serves the engine's registry in the
// Prometheus text format on every role (primary, follower,
// standalone). Every request is assigned (or propagates) an
// X-Request-Id — echoed on the response, carried through a follower's
// 307 write redirect, and used as the trace id the query pipeline
// records stage spans under. -slow-query logs any search at or above
// the threshold as one JSON line on stderr (trace id, route, compiled
// query shape, stage timings). -pprof-addr serves net/http/pprof on a
// separate listener, keeping profiling off the public port.
//
// Flags are validated up front: a negative -shards/-parallelism/-count/
// -segment-bytes/-commit-window, a -commit-batch below 1 or an unknown
// -fsync policy exits with a one-line error before anything is opened,
// instead of surfacing as undefined behavior deep in the engine.
//
// With -data-dir the server runs on the durable store: every mutation is
// written to the write-ahead log before it is acknowledged, and a restart
// (or crash) recovers the state from the latest snapshot plus the log
// tail. Concurrent mutations group-commit — they coalesce into one WAL
// append and share one fsync; -commit-window bounds how long a mutation
// may linger for its group (0 commits each drained group immediately)
// and -commit-batch caps the group size (1 = one mutation per WAL
// frame). /healthz reports the coalescing counters under "commit".
//
// A durable server is always a capable replication primary: it serves
// its WAL on /repl/v1/stream and reports connected followers on
// /healthz. With -replicate-from the server instead runs as a read-only
// follower of the named primary — it replays the primary's WAL into its
// own store, serves the full read surface, answers writes with a 307
// redirect to the primary, and exposes its catch-up position
// (appliedLSN) on /healthz. Reads on either role may pass
// ?min_lsn=N on POST /api/v1/search to wait (bounded) until that LSN is
// visible, or receive a 404 — the read-your-writes handshake; primary
// write responses return the "lsn" token to pass. With -dbfile the database is loaded from the file and saved back
// atomically on shutdown; with -count a synthetic database is generated
// (seeded into the store when one is configured and empty). -shards
// partitions a synthetic or empty database (0 means GOMAXPROCS); a
// database recovered from a snapshot keeps the default shard count.
//
// SIGINT/SIGTERM triggers a graceful shutdown: in-flight requests drain,
// the WAL is flushed (or the -dbfile snapshot rewritten) and the process
// exits 0 — the recovery smoke test in CI exercises exactly this path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bestring"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		log.Fatalf("server: %v", err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("server", flag.ContinueOnError)
	addr := fs.String("addr", ":8081", "listen address")
	dbfile := fs.String("dbfile", "", "database JSON file to serve (optional)")
	dataDir := fs.String("data-dir", "", "durable store directory (WAL + snapshots); overrides -dbfile")
	fsyncS := fs.String("fsync", "always", "WAL fsync policy with -data-dir: always, interval or never")
	segBytes := fs.Int64("segment-bytes", 0, "WAL segment rotation threshold in bytes (0 = 4 MiB)")
	commitWindow := fs.Duration("commit-window", bestring.DefaultCommitWindow,
		"max time a mutation lingers for its commit group with -data-dir (0 = commit each group as soon as it is drained)")
	commitBatch := fs.Int("commit-batch", bestring.DefaultCommitBatch,
		"max mutations coalesced into one WAL append with -data-dir (1 = one mutation per WAL frame)")
	count := fs.Int("count", 0, "generate a synthetic database of this size when empty")
	seed := fs.Int64("seed", 1, "generator seed for -count")
	shards := fs.Int("shards", 0, "shard count for a synthetic or empty database (0 = GOMAXPROCS)")
	parallelism := fs.Int("parallelism", 0, "default scoring workers for search requests that set none (0 = GOMAXPROCS)")
	replicateFrom := fs.String("replicate-from", "",
		"primary base URL to follow (e.g. http://127.0.0.1:8081); the store becomes a read-only replica (requires -data-dir)")
	slowQuery := fs.Duration("slow-query", 0,
		"log searches at or above this latency as JSON lines on stderr (0 disables)")
	pprofAddr := fs.String("pprof-addr", "",
		"serve net/http/pprof on this separate address (empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Validate every flag before opening anything: a bad value must be a
	// one-line startup error, not undefined behavior deep in the engine.
	if *dataDir != "" && *dbfile != "" {
		return fmt.Errorf("-data-dir and -dbfile are mutually exclusive")
	}
	if *replicateFrom != "" {
		if *dataDir == "" {
			return fmt.Errorf("-replicate-from requires -data-dir (the follower's own log and snapshots)")
		}
		if *count > 0 {
			return fmt.Errorf("-replicate-from and -count are mutually exclusive: a follower's state comes from its primary")
		}
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be >= 0, got %d", *shards)
	}
	if *parallelism < 0 {
		return fmt.Errorf("-parallelism must be >= 0, got %d", *parallelism)
	}
	if *segBytes < 0 {
		return fmt.Errorf("-segment-bytes must be >= 0, got %d", *segBytes)
	}
	if *commitWindow < 0 {
		return fmt.Errorf("-commit-window must be >= 0, got %v", *commitWindow)
	}
	if *commitBatch < 1 {
		return fmt.Errorf("-commit-batch must be >= 1, got %d", *commitBatch)
	}
	if *count < 0 {
		return fmt.Errorf("-count must be >= 0, got %d", *count)
	}
	if *slowQuery < 0 {
		return fmt.Errorf("-slow-query must be >= 0, got %v", *slowQuery)
	}
	policy, err := bestring.ParseFsyncPolicy(*fsyncS)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Metrics are always on: the instruments are lock-striped atomics
	// whose cost is negligible against a search or an fsync (E15 pins
	// the overhead under 2%), and a scrape endpoint nobody polls costs
	// nothing.
	reg := bestring.NewMetricsRegistry()
	slowLog := bestring.NewSlowQueryLog(os.Stderr, *slowQuery)

	var (
		eng      engine
		store    *bestring.Store
		db       *bestring.DB
		primary  *bestring.ReplicationPrimary
		follower *bestring.ReplicationFollower
	)
	if *dataDir != "" {
		opts := bestring.StoreOptions{
			Shards:       *shards,
			Fsync:        policy,
			SegmentBytes: *segBytes,
			CommitBatch:  *commitBatch,
			CommitWindow: *commitWindow,
			Replica:      *replicateFrom != "",
		}
		if *commitWindow == 0 {
			opts.CommitWindow = -1 // commit each drained group immediately
		}
		s, err := bestring.OpenStore(*dataDir, opts)
		if err != nil {
			return err
		}
		defer s.Close()
		if *count > 0 && s.Len() == 0 {
			if err := seedSynthetic(s, *count, *seed); err != nil {
				return err
			}
		}
		store, eng = s, s
		s.EnableMetrics(reg)
		if *replicateFrom != "" {
			// Follower: replay the primary's WAL stream in the background;
			// the read surface serves whatever has been applied so far. A
			// permanent sync failure (divergence, pruned backlog) leaves the
			// server up, read-only on its last applied state — /healthz
			// reports the condition under "replication".
			f, err := bestring.NewReplicationFollower(s, *replicateFrom, 0)
			if err != nil {
				return err
			}
			follower = f
			f.EnableMetrics(reg)
			go func() {
				if err := f.Run(ctx); err != nil {
					log.Printf("replication stopped permanently: %v", err)
				}
			}()
			log.Printf("durable store %s: following %s from lsn %d, %d images",
				*dataDir, *replicateFrom, s.AppliedLSN(), s.Len())
		} else {
			// Every durable server is a capable primary: the stream and ack
			// endpoints cost nothing until a follower connects.
			primary = bestring.NewReplicationPrimary(s, 0)
			primary.EnableMetrics(reg)
			log.Printf("durable store %s: %d images, fsync=%s, lsn=%d",
				*dataDir, s.Len(), policy, s.StoreStats().LastLSN)
		}
	} else {
		d, err := openDB(*dbfile, *count, *seed, *shards)
		if err != nil {
			return err
		}
		db, eng = d, d
		d.EnableMetrics(reg)
	}

	if *pprofAddr != "" {
		// pprof runs on its own listener with an explicit mux: the
		// profiling surface never shares a port with the public API, and
		// nothing registers on http.DefaultServeMux.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
		log.Printf("pprof on http://%s/debug/pprof/", *pprofAddr)
	}

	srv := &http.Server{Addr: *addr, Handler: newServerMux(muxConfig{
		engine: eng, parallelism: *parallelism,
		primary: primary, follower: follower, primaryURL: *replicateFrom,
		metrics: reg, slowLog: slowLog,
	})}
	errCh := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	log.Printf("serving %d images on %s", eng.Len(), *addr)
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if store != nil {
		// The deferred Close also runs harmlessly; close now so a flush
		// failure surfaces as a non-zero exit.
		if err := store.Close(); err != nil {
			return err
		}
	}
	if db != nil && *dbfile != "" {
		if err := db.SaveFile(*dbfile); err != nil {
			return err
		}
		log.Printf("saved %d images to %s", db.Len(), *dbfile)
	}
	return nil
}

// openDB loads or synthesises the in-memory database per the flags.
func openDB(dbfile string, count int, seed int64, shards int) (*bestring.DB, error) {
	if dbfile != "" {
		return bestring.LoadDBFile(dbfile)
	}
	db := bestring.NewDBSharded(shards)
	if count <= 0 {
		return db, nil
	}
	if err := seedSynthetic(db, count, seed); err != nil {
		return nil, err
	}
	return db, nil
}

// seedSynthetic fills an empty engine with generated scenes.
func seedSynthetic(eng engine, count int, seed int64) error {
	cfg := bestring.SceneConfig{Seed: seed, Vocabulary: 24}
	return bestring.SeedScenes(context.Background(), eng, cfg, count)
}
