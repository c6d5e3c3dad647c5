package imagedb

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"bestring/internal/core"
	"bestring/internal/fsutil"
	"bestring/internal/wal"
)

// This file is the store's replication surface (DESIGN.md section 9).
// A follower store (StoreOptions.Replica) never originates mutations:
// its state advances only through ApplyReplicatedBatch, which replays
// WAL records shipped from a primary through the same validate→apply
// machinery local mutations use — one transaction, one append to the
// follower's OWN log (a byte-for-byte re-framing of the primary's
// records, preserving LSNs), one fsync, one published MVCC version.
// The primary side exposes the durable horizon (DurableLSN, WaitDurable,
// TailWAL) the internal/repl server streams from, and the prune floor
// that keeps segments a connected follower still needs.

// ErrReadOnlyReplica is returned by mutation methods on a follower
// store. Writes belong on the primary; the HTTP layer turns this into a
// redirect.
var ErrReadOnlyReplica = errors.New("store is a read-only replica")

// storeIDFile holds the store's random identity, minted on first open.
// Two stores share an id only if one was replicated (or copied) from
// the other — which is exactly the question a follower must answer
// before applying a stream: "is this primary's history my history?"
const storeIDFile = "STOREID"

// loadOrCreateStoreID reads the store identity in dir, minting and
// durably persisting a fresh one for a new store.
func loadOrCreateStoreID(dir string) (string, error) {
	path := filepath.Join(dir, storeIDFile)
	if data, err := os.ReadFile(path); err == nil {
		id := strings.TrimSpace(string(data))
		if id != "" {
			return id, nil
		}
	}
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", fmt.Errorf("mint store id: %w", err)
	}
	id := hex.EncodeToString(raw[:])
	err := fsutil.AtomicWriteFile(path, func(w io.Writer) error {
		_, werr := fmt.Fprintln(w, id)
		return werr
	})
	if err != nil {
		return "", fmt.Errorf("write store id: %w", err)
	}
	return id, nil
}

// StoreID returns the store's durable random identity.
func (s *Store) StoreID() string { return s.id }

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// Replica reports whether the store is a read-only replication follower.
func (s *Store) Replica() bool { return s.opts.Replica }

// DurableLSN returns the highest LSN on stable storage — the horizon the
// replication stream ships to followers.
func (s *Store) DurableLSN() uint64 { return s.log.DurableLSN() }

// OldestLSN returns the first LSN still retained in the WAL: a follower
// behind it cannot catch up from this store and must be re-seeded.
func (s *Store) OldestLSN() uint64 { return s.log.OldestLSN() }

// AppliedLSN returns the LSN of the last record applied to this store —
// on a follower, how far it has replayed the primary's history.
func (s *Store) AppliedLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appliedLSN
}

// VisibleLSN returns the highest LSN whose effects are observable in a
// published MVCC version: the read-your-writes horizon.
func (s *Store) VisibleLSN() uint64 { return s.visibleLSN.Load() }

// WaitVisible blocks until VisibleLSN() >= lsn, the context is done, or
// the store closes. It is the wait half of min_lsn read routing.
func (s *Store) WaitVisible(ctx context.Context, lsn uint64) error {
	for {
		if s.visibleLSN.Load() >= lsn {
			return nil
		}
		s.mu.Lock()
		if s.visibleLSN.Load() >= lsn {
			s.mu.Unlock()
			return nil
		}
		if s.closed {
			s.mu.Unlock()
			return ErrStoreClosed
		}
		ch := s.visibleCh
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// TailWAL streams this store's WAL records after the given LSN (see
// wal.Tailer) — the primary side of a replication feed.
func (s *Store) TailWAL(afterLSN uint64) *wal.Tailer { return s.log.Tail(afterLSN) }

// SetPruneFloor installs fn as the checkpoint prune cap: WAL segments
// holding records with LSN > fn() survive checkpoints so connected
// followers can still stream them. fn must be safe for concurrent use
// and should return the minimum acked LSN across followers (or a value
// >= the last LSN when nothing constrains pruning). Pass nil to remove
// the floor.
func (s *Store) SetPruneFloor(fn func() uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneFloor = fn
}

// ApplyReplicatedBatch applies a run of consecutive primary WAL records
// to a follower store. The records must continue this store's LSN
// sequence exactly (the primary streams them in order; wal.AppendBatch
// re-verifies). The batch is all-or-nothing and follows the same
// durability-before-visibility order as a local commit group:
//
//  1. validate + apply every record to ONE copy-on-write transaction —
//     a record that fails leaves the store untouched and poisons the
//     stream (the follower disconnects rather than diverge);
//  2. append all records to the follower's own WAL as one batch with
//     one fsync, preserving the primary's LSNs byte-for-byte, so a
//     follower crash recovers locally and resumes from its own log;
//  3. publish the transaction as one MVCC version and mark it visible.
//
// It bypasses the group-commit batcher (a follower has no concurrent
// writers to coalesce — the stream is already serialised) but reuses
// the same txn/publish machinery, so reads on a follower see exactly
// the states the primary published, batch-granular.
func (s *Store) ApplyReplicatedBatch(recs []wal.Record) error {
	return s.applyReplicated(recs, nil)
}

// ApplyReplicatedFrames is ApplyReplicatedBatch for records that
// arrived with their wire frames: frames[i] must be the verified frame
// of recs[i] (wal.ReadFrameRaw returns both), and is appended to the
// follower's log verbatim — making "the follower's log holds the
// primary's bytes" literal, and skipping the per-record re-encode.
func (s *Store) ApplyReplicatedFrames(recs []wal.Record, frames [][]byte) error {
	if len(frames) != len(recs) {
		return fmt.Errorf("%d frames for %d records", len(frames), len(recs))
	}
	return s.applyReplicated(recs, frames)
}

func (s *Store) applyReplicated(recs []wal.Record, frames [][]byte) error {
	if !s.opts.Replica {
		return errors.New("ApplyReplicatedBatch on a non-replica store")
	}
	if len(recs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	db := s.db
	db.writeMu.Lock()
	defer db.writeMu.Unlock()

	m := beginTxn(db.current.Load())
	for i := range recs {
		if err := applyRecordTxn(db, m, &recs[i]); err != nil {
			return fmt.Errorf("replicated record lsn %d (%s %q): %w",
				recs[i].LSN, recs[i].Op, recs[i].ID, err)
		}
	}
	var n int
	var err error
	if frames != nil {
		n, err = s.log.AppendBatchFrames(recs, frames)
	} else {
		n, err = s.log.AppendBatch(recs)
	}
	if err != nil {
		return err // nothing durable, nothing publishes
	}
	s.appliedLSN = recs[len(recs)-1].LSN
	s.bytesSince += int64(n)
	db.publish(m)
	s.markVisibleLocked(s.appliedLSN)
	s.maybeCheckpointLocked()
	// Remember replicated import chunk keys: should this follower be
	// promoted, a resumed import against it skips the chunks it already
	// replayed.
	for i := range recs {
		if recs[i].Op == wal.OpImport && recs[i].Key != "" {
			s.noteImportKey(recs[i].Key)
		}
	}
	return nil
}

// applyRecordTxn applies one WAL record to an in-progress transaction —
// the replica-side twin of applyRecord, validating against the txn's
// working state so a multi-record batch sees its own earlier effects.
func applyRecordTxn(db *DB, m *txn, rec *wal.Record) error {
	switch rec.Op {
	case wal.OpInsert:
		if rec.Image == nil {
			return errors.New("record has no image")
		}
		if rec.ID == "" {
			return ErrEmptyID
		}
		if _, exists := m.lookup(rec.ID); exists {
			return ErrDuplicate
		}
		be, err := core.Convert(*rec.Image)
		if err != nil {
			return err
		}
		st := &stored{Entry: Entry{ID: rec.ID, Name: rec.Name, Image: rec.Image.Clone(), BE: be}}
		st.seq = db.seq.Add(1)
		m.add(st)
	case wal.OpDelete:
		st, ok := m.lookup(rec.ID)
		if !ok {
			return ErrNotFound
		}
		m.remove(st)
	case wal.OpInsertObject:
		if rec.Object == nil {
			return errors.New("record has no object")
		}
		st, ok := m.lookup(rec.ID)
		if !ok {
			return ErrNotFound
		}
		next := st.Image.WithObject(*rec.Object)
		be, err := core.Convert(next)
		if err != nil {
			return err
		}
		m.replace(st, &stored{Entry: Entry{ID: rec.ID, Name: st.Name, Image: next, BE: be}, seq: st.seq})
	case wal.OpDeleteObject:
		st, ok := m.lookup(rec.ID)
		if !ok {
			return ErrNotFound
		}
		next, found := st.Image.WithoutObject(rec.Label)
		if !found {
			return ErrNotFound
		}
		be, err := core.Convert(next)
		if err != nil {
			return err
		}
		m.replace(st, &stored{Entry: Entry{ID: rec.ID, Name: st.Name, Image: next, BE: be}, seq: st.seq})
	case wal.OpBulk, wal.OpImport:
		// Import chunk frames ship verbatim and replay exactly like a bulk
		// batch; the arena packing below gives a follower the same slab
		// locality the primary's importer produced.
		for i := range rec.Items {
			if _, exists := m.lookup(rec.Items[i].ID); exists {
				return fmt.Errorf("bulk item %q: %w", rec.Items[i].ID, ErrDuplicate)
			}
		}
		packed := make([]arenaItem, len(rec.Items))
		for i := range rec.Items {
			it := &rec.Items[i]
			be, err := core.Convert(it.Image)
			if err != nil {
				return fmt.Errorf("bulk item %q: %w", it.ID, err)
			}
			packed[i] = arenaItem{id: it.ID, name: it.Name, img: it.Image, be: be}
		}
		for _, st := range buildArena(packed).pointers() {
			st.seq = db.seq.Add(1)
			m.add(st)
		}
	case wal.OpGroup:
		if len(rec.Subs) == 0 {
			return errors.New("empty group record")
		}
		for i := range rec.Subs {
			sub := &rec.Subs[i]
			if sub.Op == wal.OpGroup {
				return fmt.Errorf("group sub-record %d: nested group", i)
			}
			if err := applyRecordTxn(db, m, sub); err != nil {
				return fmt.Errorf("group sub-record %d (%s %q): %w", i, sub.Op, sub.ID, err)
			}
		}
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	return nil
}
