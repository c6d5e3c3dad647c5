package imagedb

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"bestring/internal/core"
)

// BulkItem is one image in a bulk insertion.
type BulkItem struct {
	ID    string
	Name  string
	Image core.Image
}

// BulkInsert converts many images in parallel (the conversions are
// independent and CPU-bound, the expensive part of an insert) and then
// installs them. It is all-or-nothing: if any item fails validation,
// conversion or collides with an existing id, nothing is inserted. The
// whole batch lands in one published version (a single epoch bump), so
// a concurrent reader sees either none of it or all of it — conversion
// and image cloning happen before the writer lock is taken.
// parallelism <= 0 means GOMAXPROCS.
func (db *DB) BulkInsert(ctx context.Context, items []BulkItem, parallelism int) error {
	if len(items) == 0 {
		return nil
	}
	sts, err := prepareBulk(ctx, items, parallelism)
	if err != nil {
		return err
	}
	return db.installBulk(sts)
}

// prepareBulk is the lock-free half of a bulk insert: id validation
// (non-empty, unique within the batch), parallel conversion, and image
// cloning. It returns the stored entries ready to install (sequence
// numbers unassigned). The durable store calls it directly so a bulk
// batch is fully validated before its WAL record is written. The entries
// are packed into one columnar arena slab (arena.go).
func prepareBulk(ctx context.Context, items []BulkItem, parallelism int) ([]*stored, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	seen := make(map[string]bool, len(items))
	for i, it := range items {
		if it.ID == "" {
			return nil, fmt.Errorf("bulk insert item %d: %w", i, ErrEmptyID)
		}
		if seen[it.ID] {
			return nil, fmt.Errorf("bulk insert item %d (%q): %w", i, it.ID, ErrDuplicate)
		}
		seen[it.ID] = true
	}

	converted := make([]core.BEString, len(items))
	errs := make([]error, len(items))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				converted[i], errs[i] = core.Convert(items[i].Image)
			}
		}()
	}
	var cancelled error
feed:
	for i := range items {
		select {
		case jobs <- i:
		case <-ctx.Done():
			cancelled = ctx.Err()
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if cancelled != nil {
		return nil, fmt.Errorf("bulk insert: %w", cancelled)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("bulk insert item %d (%q): %w", i, items[i].ID, err)
		}
	}

	// Build the stored entries (including the image clones and their
	// symbol signatures) before any lock is taken; only map installs and
	// index registration remain for the critical section.
	packed := make([]arenaItem, len(items))
	for i, it := range items {
		packed[i] = arenaItem{id: it.ID, name: it.Name, img: it.Image, be: converted[i]}
	}
	return buildArena(packed).pointers(), nil
}

// installBulk is the critical section of a bulk insert: under the writer
// mutex it re-checks for id collisions against the current version and
// then builds and publishes one next version holding the whole batch —
// or publishes nothing.
func (db *DB) installBulk(sts []*stored) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	cur := db.current.Load()
	for _, st := range sts {
		if _, exists := cur.lookup(st.ID); exists {
			return fmt.Errorf("bulk insert %q: %w", st.ID, ErrDuplicate)
		}
	}
	m := beginTxn(cur)
	for _, st := range sts {
		st.seq = db.seq.Add(1)
		m.add(st)
	}
	db.publish(m)
	return nil
}
