package core

import (
	"sort"

	"pcplsm/internal/ikey"
	"pcplsm/internal/sstable"
)

// TableSource is one input table of a compaction.
type TableSource struct {
	// R reads the table.
	R *sstable.Reader
	// Entries caches the table's index (one entry per data block).
	Entries []sstable.IndexEntry
}

// NewTableSource wraps an open table reader.
func NewTableSource(r *sstable.Reader) *TableSource {
	return &TableSource{R: r, Entries: r.IndexEntries()}
}

// BlockSpan selects the contiguous block range [From, To) of one source.
type BlockSpan struct {
	Source   int // index into the compaction's input slice
	From, To int // data block indices
}

// Subtask is the pipeline's unit of work: one sub-key-range of the
// compaction, holding every input data block whose keys may fall in the
// range. Sub-task key ranges are disjoint and ordered; a block that spans a
// boundary is read by both neighbours, and each emits only the keys inside
// its own range, so every entry flows through exactly one sub-task.
type Subtask struct {
	// Index is the sub-task's position in key order.
	Index int
	// Lo and Hi bound the range: an internal key k belongs to the sub-task
	// iff (Lo == nil or k > Lo) and (Hi == nil or k <= Hi).
	Lo, Hi []byte
	// Spans lists the input blocks intersecting the range.
	Spans []BlockSpan
	// InputBytes is the physical size of the spanned blocks. A block that
	// spans a boundary counts in both neighbours, so the sum over sub-tasks
	// exceeds what S1 reads; it sizes partitions only.
	InputBytes int64
}

// contains reports whether internal key k falls inside the sub-task range.
func (st *Subtask) contains(k []byte) bool {
	if st.Lo != nil && ikey.Compare(k, st.Lo) <= 0 {
		return false
	}
	if st.Hi != nil && ikey.Compare(k, st.Hi) > 0 {
		return false
	}
	return true
}

// Partition splits a compaction over inputs into sub-tasks of roughly
// subtaskSize physical input bytes each, cutting only at data block
// boundaries (paper §III-B: "Each sub-key range consists of one or more
// data blocks"). subtaskSize <= 0 yields a single sub-task.
func Partition(inputs []*TableSource, subtaskSize int64) []Subtask {
	type blk struct {
		src, idx int
		last     []byte
		size     int64
	}
	var all []blk
	for si, src := range inputs {
		for bi, e := range src.Entries {
			all = append(all, blk{src: si, idx: bi, last: e.LastKey, size: e.Handle.Length})
		}
	}
	if len(all) == 0 {
		return nil
	}
	sort.SliceStable(all, func(i, j int) bool {
		return ikey.Compare(all[i].last, all[j].last) < 0
	})

	// Choose boundary keys greedily by accumulated physical size. The final
	// block never opens a new boundary, so the last range is never empty.
	// Each boundary is normalized to the maximal internal key of its user
	// key (seq 0, kind 0), so every version of a user key lands in the same
	// sub-task — otherwise two output tables of one level could both hold
	// the key, breaking the level invariant.
	var boundaries [][]byte
	var acc int64
	if subtaskSize > 0 {
		for i, b := range all {
			acc += b.size
			if acc >= subtaskSize && i != len(all)-1 {
				bound := ikey.Make(ikey.UserKey(b.last), 0, 0)
				if len(boundaries) == 0 || ikey.Compare(bound, boundaries[len(boundaries)-1]) > 0 {
					boundaries = append(boundaries, bound)
					acc = 0
				}
			}
		}
	}

	// Materialize one sub-task per range (lo, hi].
	ranges := make([]Subtask, 0, len(boundaries)+1)
	var lo []byte
	for _, hi := range boundaries {
		ranges = append(ranges, Subtask{Lo: lo, Hi: hi})
		lo = hi
	}
	ranges = append(ranges, Subtask{Lo: lo, Hi: nil})

	for ri := range ranges {
		st := &ranges[ri]
		st.Index = ri
		for si, src := range inputs {
			from, to := spanForRange(src.Entries, st.Lo, st.Hi)
			if from >= to {
				continue
			}
			st.Spans = append(st.Spans, BlockSpan{Source: si, From: from, To: to})
			for i := from; i < to; i++ {
				st.InputBytes += src.Entries[i].Handle.Length
			}
		}
	}

	// Drop ranges that ended up with no blocks (possible when a boundary
	// separated ranges covered entirely by one side).
	out := ranges[:0]
	for _, st := range ranges {
		if len(st.Spans) > 0 {
			st.Index = len(out)
			out = append(out, st)
		}
	}
	return out
}

// spanForRange returns the block index range [from, to) of blocks whose key
// span intersects (lo, hi]. Block i holds keys in (last[i-1], last[i]], so
// it intersects iff last[i] > lo and last[i-1] < hi.
func spanForRange(entries []sstable.IndexEntry, lo, hi []byte) (from, to int) {
	n := len(entries)
	if n == 0 {
		return 0, 0
	}
	if lo == nil {
		from = 0
	} else {
		// First block with last > lo.
		from = sort.Search(n, func(i int) bool {
			return ikey.Compare(entries[i].LastKey, lo) > 0
		})
	}
	if hi == nil {
		to = n
	} else {
		// First block with last >= hi; that block may still start below hi,
		// so it is included (to = idx+1). Blocks after it start >= hi.
		idx := sort.Search(n, func(i int) bool {
			return ikey.Compare(entries[i].LastKey, hi) >= 0
		})
		if idx == n {
			to = n
		} else {
			to = idx + 1
		}
	}
	if from > to {
		from = to
	}
	return from, to
}
