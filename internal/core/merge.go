package core

import (
	"container/heap"

	"pcplsm/internal/block"
	"pcplsm/internal/ikey"
)

// concatIter iterates the entries of a run of consecutive plain data blocks
// from one table — within a sub-task, each source contributes one such run.
type concatIter struct {
	blocks [][]byte // plain block contents, in key order
	cur    int
	bi     *block.Iter
	err    error
}

func newConcatIter(blocks [][]byte) *concatIter {
	return &concatIter{blocks: blocks, cur: -1}
}

// next advances to the next entry, crossing block boundaries.
func (c *concatIter) next() bool {
	if c.err != nil {
		return false
	}
	for {
		if c.bi != nil {
			if c.bi.Next() {
				return true
			}
			if c.bi.Err() != nil {
				c.err = c.bi.Err()
				return false
			}
		}
		c.cur++
		if c.cur >= len(c.blocks) {
			return false
		}
		bi, err := block.NewIter(c.blocks[c.cur], ikey.Compare)
		if err != nil {
			c.err = err
			return false
		}
		c.bi = bi
		if c.bi.First() {
			return true
		}
		if c.bi.Err() != nil {
			c.err = c.bi.Err()
			return false
		}
	}
}

func (c *concatIter) key() []byte   { return c.bi.Key() }
func (c *concatIter) value() []byte { return c.bi.Value() }

// mergeHeap orders source iterators by current internal key; ties (which
// cannot occur for distinct writes, since sequence numbers are unique) break
// by source index for determinism.
type mergeHeap struct {
	items []*heapItem
}

type heapItem struct {
	it  *concatIter
	src int
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	c := ikey.Compare(h.items[i].it.key(), h.items[j].it.key())
	if c != 0 {
		return c < 0
	}
	return h.items[i].src < h.items[j].src
}
func (h *mergeHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x any)    { h.items = append(h.items, x.(*heapItem)) }
func (h *mergeHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

// mergeEmit runs the k-way merge (paper step S4's sorting half) over the
// sources, applying version shadowing, snapshot retention and tombstone
// elimination, and calls emit for every surviving entry inside the
// sub-task's range. It returns (entriesSeen, entriesEmitted).
//
// Shadowing: internal keys of one user key sort newest-first. A version is
// dropped when a newer version of the same user key exists whose sequence
// number is <= retainSeq — i.e. when every live snapshot already sees that
// newer version (the LevelDB rule). retainSeq 0 means "no snapshots": only
// the newest version survives. dropTombstones additionally removes
// deletion markers whose sequence is <= retainSeq (visible to every
// reader), legal only when no lower component can still hold older
// versions of the key (bottom-level compactions).
func mergeEmit(st *Subtask, sources []*concatIter, dropTombstones bool, retainSeq uint64, emit func(k, v []byte)) (seen, emitted int64, err error) {
	if retainSeq == 0 {
		retainSeq = ikey.MaxSeq
	}
	// Entries outside the range belong to a neighbouring sub-task (their
	// block straddles the boundary) and are not merged or counted here.
	// Those at or below Lo lead their source and are skipped before the
	// merge starts, so the first entry the merge meets outside the range
	// lies above Hi, and so does every entry still queued: the merge ends.
	h := &mergeHeap{}
	for si, it := range sources {
		for it.next() {
			if st.Lo == nil || ikey.Compare(it.key(), st.Lo) > 0 {
				h.items = append(h.items, &heapItem{it: it, src: si})
				break
			}
		}
		if it.err != nil {
			return seen, emitted, it.err
		}
	}
	heap.Init(h)

	var lastUser []byte
	haveLast := false
	// prevSeq is the sequence of the previously kept-or-seen version of
	// lastUser; the sentinel (MaxSeq+1) marks "no newer version exists".
	const freshKey = uint64(1) << 60
	prevSeq := freshKey
	for h.Len() > 0 {
		top := h.items[0]
		k, v := top.it.key(), top.it.value()
		if !st.contains(k) {
			break
		}
		seen++
		user := ikey.UserKey(k)
		if !haveLast || string(user) != string(lastUser) {
			lastUser = append(lastUser[:0], user...)
			haveLast = true
			prevSeq = freshKey
		}
		switch {
		case prevSeq <= retainSeq:
			// A newer version is visible to every snapshot: this one is
			// dead for all readers.
		case dropTombstones && ikey.KindOf(k) == ikey.KindDelete && ikey.Seq(k) <= retainSeq:
			// Tombstone visible to every reader and nothing deeper can
			// resurface: elide it (and the retention rule above will
			// drop the older versions it shadows).
		default:
			emit(k, v)
			emitted++
		}
		prevSeq = ikey.Seq(k)
		if top.it.next() {
			heap.Fix(h, 0)
		} else {
			if top.it.err != nil {
				return seen, emitted, top.it.err
			}
			heap.Pop(h)
		}
	}
	return seen, emitted, nil
}
