package imagedb

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"bestring/internal/core"
	"bestring/internal/fsutil"
)

// snapshotJSON is the on-disk format: a versioned list of entries.
type snapshotJSON struct {
	Version int     `json:"version"`
	Entries []Entry `json:"entries"`
}

// snapshotVersion is bumped on incompatible format changes.
const snapshotVersion = 1

// Save writes the database as JSON. Entries appear in insertion order.
// The snapshot is pinned once, so the bytes written are one state the
// database actually passed through (never half of a bulk batch), and
// concurrent writers are never blocked — Save holds no lock at all.
func (db *DB) Save(w io.Writer) error {
	return saveEntries(w, db.current.Load().orderedEntries())
}

// saveEntries writes a versioned JSON snapshot of the given entries —
// the shared encoding behind DB.Save and the store's checkpointer (which
// pins a version and encodes entirely outside the writer lock).
func saveEntries(w io.Writer, entries []Entry) error {
	snap := snapshotJSON{Version: snapshotVersion, Entries: entries}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("save image db: %w", err)
	}
	return nil
}

// loadEntries validates and installs a decoded snapshot as one published
// version: every entry's BE-string is re-derived from its image and
// cross-checked against the stored one, so a corrupted or hand-edited
// snapshot cannot desynchronise index and data. One version for the
// whole load keeps recovery linear — per-entry Insert would copy the
// target shard once per entry.
func (db *DB) loadEntries(entries []Entry, wrap string) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	m := beginTxn(db.current.Load())
	packed := make([]arenaItem, 0, len(entries))
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if e.ID == "" {
			return fmt.Errorf("%s: %w", wrap, ErrEmptyID)
		}
		if _, exists := m.shards[shardIndex(e.ID, len(m.shards))].entries[e.ID]; exists || seen[e.ID] {
			return fmt.Errorf("%s: insert %q: %w", wrap, e.ID, ErrDuplicate)
		}
		seen[e.ID] = true
		be, err := core.Convert(e.Image)
		if err != nil {
			return fmt.Errorf("%s: insert %q: %w", wrap, e.ID, err)
		}
		if len(e.BE.X) > 0 && !be.Equal(e.BE) {
			return fmt.Errorf("%s: entry %q: stored BE-string does not match its image", wrap, e.ID)
		}
		// Defer the install: the whole load packs into one columnar arena
		// (arena.go), so a recovered corpus gets the same slab locality a
		// live bulk insert would.
		packed = append(packed, arenaItem{id: e.ID, name: e.Name, img: e.Image, be: be})
	}
	for _, st := range buildArena(packed).pointers() {
		st.seq = db.seq.Add(1)
		m.add(st)
	}
	db.publish(m)
	return nil
}

// Load reads a database snapshot written by Save.
func Load(r io.Reader) (*DB, error) {
	var snap snapshotJSON
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("load image db: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("load image db: unsupported snapshot version %d", snap.Version)
	}
	db := New()
	if err := db.loadEntries(snap.Entries, "load image db"); err != nil {
		return nil, err
	}
	return db, nil
}

// SaveFile writes the database to a file path atomically: the snapshot
// is written to a temp file in the same directory, fsynced and renamed
// over path, so a crash mid-save can never clobber the previous good
// snapshot.
func (db *DB) SaveFile(path string) error {
	if err := fsutil.AtomicWriteFile(path, db.Save); err != nil {
		return fmt.Errorf("save image db: %w", err)
	}
	return nil
}

// LoadFile reads a database from a file path.
func LoadFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("load image db: %w", err)
	}
	defer f.Close()
	return Load(f)
}
