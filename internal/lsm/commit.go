package lsm

import (
	"encoding/binary"
	"fmt"

	"pcplsm/internal/ikey"
	"pcplsm/internal/memtable"
)

// Group-commit write pipeline.
//
// Concurrent writers enqueue their batches in a FIFO; the writer at the
// front is the leader. The leader makes room (possibly stalling for
// background work), merges the queue — itself first — up to
// writeGroupMaxCount/MaxBytes into ONE WAL record, appends it (one
// fsync for the whole group when SyncWAL is on), applies every entry to the
// memtable, and only then allocates the group's sequence numbers and
// publishes them as the visible-sequence watermark. Followers sleep the
// whole time and wake with the leader's verdict, so one commit's device
// time is amortized over the group and a writer stalled in
// makeRoomForWrite no longer serializes everyone behind it one-at-a-time.
//
// Locking. Three locks with a strict order commitMu → db.mu (writeMu is a
// leaf, never held across either):
//
//   - writeMu guards only the writer queue.
//   - commitMu serializes commit groups with each other and with every
//     other WAL mutation (rotation in Flush/makeRoomForWrite, Close). The
//     leader holds it across WAL I/O and the memtable apply — both happen
//     OUTSIDE db.mu, so reads (which need only the memtable pointers, the
//     current version and the visible watermark) never wait on commit I/O.
//   - db.mu covers the shared DB state as before; the commit path takes it
//     only for the brief makeRoomForWrite / publish sections.
//
// Visibility. Entries inserted by an in-flight group carry sequences above
// the published watermark, and every read path (Get, snapshots, iterators)
// clamps its view to db.visibleSeq — so a half-applied group is invisible
// exactly the way entries above a snapshot's sequence are. The watermark
// moves only after the whole group is in the memtable.
//
// Durability and sequence allocation. The leader reads the next sequence
// but does not advance db.seq until wal.Append (and Sync, when configured)
// succeeds. On failure nothing was allocated — recovery replays the WAL to
// the exact pre-group state with no sequence gap — and the DB is poisoned
// (bgErr): after a failed append the wal.Writer's block alignment no longer
// matches the file, so appending more records could make an otherwise-clean
// tail unrecoverable.
//
// Recovery equivalence. A merged record is byte-identical to the record of
// one batch holding the group's entries in queue order, so replay assigns
// base+i to the i-th entry — the same sequences the writers were
// acknowledged with individually.

// A commit group merges at most writeGroupMaxCount writers and
// writeGroupMaxBytes of summed batch payload, bounding both the merged WAL
// record and the latency a large group adds to its first writer.
const (
	writeGroupMaxCount = 64
	writeGroupMaxBytes = 1 << 20
)

// commitWriter is one queued Write call.
type commitWriter struct {
	batch *Batch
	err   error
	done  bool          // set before ready is signaled when a leader finished this write
	ready chan struct{} // buffered(1): signaled on completion or promotion to leader
}

// Write commits a batch atomically.
func (db *DB) Write(b *Batch) error {
	if b.Len() == 0 {
		return nil
	}
	w := &commitWriter{batch: b, ready: make(chan struct{}, 1)}
	db.writeMu.Lock()
	db.writers = append(db.writers, w)
	leader := len(db.writers) == 1
	db.writeMu.Unlock()
	if !leader {
		<-w.ready
		if w.done {
			// A leader committed (or failed) this batch on our behalf.
			return w.err
		}
		// Promoted: the previous leader finished and we are now at the
		// front with our batch still pending.
	}
	return db.commitAsLeader(w)
}

// commitAsLeader runs the group-commit protocol with leader at the front of
// the queue. It always finishes its group (signalling followers and
// promoting the next leader) before returning.
func (db *DB) commitAsLeader(leader *commitWriter) error {
	db.commitMu.Lock()

	db.mu.Lock()
	var err error
	switch {
	case db.closed:
		err = ErrClosed
	case db.bgErr != nil:
		err = db.bgErr
	default:
		err = db.makeRoomForWrite()
	}
	mem, w, base := db.mem, db.wal, db.seq+1
	db.mu.Unlock()
	if err != nil {
		// The group was never formed: fail the leader alone and let each
		// follower observe the state itself when promoted.
		db.commitMu.Unlock()
		db.finishGroup([]*commitWriter{leader}, err)
		return err
	}

	group := db.buildGroup(leader)

	// One record for the whole group, built in a reused scratch buffer
	// pre-sized from the summed batch lengths.
	count := 0
	need := 2 * binary.MaxVarintLen64
	for _, gw := range group {
		count += gw.batch.Len()
		need += gw.batch.entriesSize()
	}
	if cap(db.commitBuf) < need {
		db.commitBuf = make([]byte, 0, need)
	}
	buf := binary.AppendUvarint(db.commitBuf[:0], base)
	buf = binary.AppendUvarint(buf, uint64(count))
	for _, gw := range group {
		buf = gw.batch.appendEntries(buf)
	}
	db.commitBuf = buf

	err = w.Append(buf)
	synced := false
	if err == nil && db.opts.SyncWAL {
		err = w.Sync()
		synced = err == nil
	}
	if err != nil {
		err = fmt.Errorf("lsm: group commit (%d writers): %w", len(group), err)
		db.poisonCommits(err)
		db.commitMu.Unlock()
		db.finishGroup(group, err)
		return err
	}

	// Apply to the memtable. Only the leader applies (rotation is excluded
	// by commitMu), preserving the per-shard single-writer contract even
	// when Apply fans the group out to parallel shard goroutines; concurrent
	// readers cannot see these entries yet because their sequences are above
	// the visible watermark, which moves only after every shard has landed.
	var puts, dels int64
	ops := db.applyOps[:0]
	seq := base
	for _, gw := range group {
		for _, e := range gw.batch.entries {
			ops = append(ops, memtable.Op{Seq: seq, Kind: e.kind, Key: e.key, Val: e.val})
			if e.kind == ikey.KindDelete {
				dels++
			} else {
				puts++
			}
			seq++
		}
	}
	db.applyOps = ops
	shards, parallel := mem.Apply(ops)

	// Publish: allocate the sequences and move the watermark. db.seq stays
	// mu-guarded (recovery checkpoints read it); the watermark is the
	// lock-free view reads use.
	db.mu.Lock()
	db.seq = seq - 1
	db.mu.Unlock()
	db.visibleSeq.Store(seq - 1)
	db.commitMu.Unlock()

	db.stats.addPutsDeletes(puts, dels)
	db.stats.addCommit(int64(len(group)), synced)
	db.stats.addApply(int64(shards), parallel)
	db.finishGroup(group, nil)
	return nil
}

// buildGroup merges the queue prefix — leader first — up to the group caps.
// A group always contains at least the leader.
func (db *DB) buildGroup(leader *commitWriter) []*commitWriter {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	group := make([]*commitWriter, 1, min(len(db.writers), writeGroupMaxCount))
	group[0] = leader
	bytes := leader.batch.size
	for _, w := range db.writers[1:] {
		if len(group) >= writeGroupMaxCount || bytes+w.batch.size > writeGroupMaxBytes {
			break
		}
		group = append(group, w)
		bytes += w.batch.size
	}
	return group
}

// finishGroup pops the group (always the queue prefix) from the writer
// queue, delivers the verdict to every follower in it, and promotes the new
// front — if any — to leader. The leader itself is the caller and takes its
// error from the return path.
func (db *DB) finishGroup(group []*commitWriter, err error) {
	db.writeMu.Lock()
	n := copy(db.writers, db.writers[len(group):])
	for i := n; i < len(db.writers); i++ {
		db.writers[i] = nil // release popped writers to the GC
	}
	db.writers = db.writers[:n]
	var next *commitWriter
	if len(db.writers) > 0 {
		next = db.writers[0]
	}
	db.writeMu.Unlock()
	for _, gw := range group[1:] {
		gw.err = err
		gw.done = true
		gw.ready <- struct{}{}
	}
	if next != nil {
		next.ready <- struct{}{}
	}
}

// poisonCommits records a commit-path WAL failure as the sticky background
// error and wakes any stalled writers so they observe it. WAL-append
// failures are always permanent: after a failed append the wal.Writer's
// block alignment no longer matches the file, so retrying could make an
// otherwise-clean tail unrecoverable.
func (db *DB) poisonCommits(err error) {
	db.setBgErr(&backgroundError{cause: err})
}
