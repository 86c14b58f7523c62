package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"

	"pcplsm/internal/workload"
)

const (
	keyLen = 16
	// keyBits bounds key numbers below 2^38 < 10^12: workload.FormatKey keeps
	// only the 12 least-significant decimal digits, so a full 64-bit mix
	// would make two ids share a key about twice per 2M-key load.
	keyBits  = 38
	halfBits = keyBits / 2
	halfMask = 1<<halfBits - 1
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyspace is the benchmark's model of what the store must hold: ids
// [0, n) are loaded, every other id below 2^38 is a key that was never
// written, and every value is a function of (seed, id, generation).
type keyspace struct {
	seed   uint64
	n      int
	vlen   int
	rounds [4]uint64
	keys   []byte   // key of id i at keys[i*keyLen:]
	sorted []uint64 // key numbers of the loaded ids, ascending
	// corruptID, when >= 0, makes the expectation for that id wrong; the
	// smoke test uses it to prove the probes fire.
	corruptID int64
}

// newKeyspace generates the inputs of one run: the keys in insertion order
// and the sorted key numbers that scans are checked against.
func newKeyspace(seed uint64, n, vlen int) *keyspace {
	k := &keyspace{seed: seed, n: n, vlen: vlen, corruptID: -1}
	for i := range k.rounds {
		k.rounds[i] = mix64(seed + uint64(i+1)*0x9e3779b97f4a7c15)
	}
	k.keys = make([]byte, 0, n*keyLen)
	k.sorted = make([]uint64, n)
	for id := 0; id < n; id++ {
		num := k.num(uint64(id))
		k.sorted[id] = num
		k.keys = append(k.keys, workload.FormatKey(num, keyLen)...)
	}
	sort.Slice(k.sorted, func(i, j int) bool { return k.sorted[i] < k.sorted[j] })
	return k
}

// num maps an id to its key number with a 4-round Feistel network over 38
// bits: a bijection, so distinct ids never share a key, and consecutive ids
// land far apart (random insertion order).
func (k *keyspace) num(id uint64) uint64 {
	l, r := id>>halfBits&halfMask, id&halfMask
	for _, rk := range k.rounds {
		l, r = r, l^(mix64(r^rk)&halfMask)
	}
	return l<<halfBits | r
}

// id inverts num.
func (k *keyspace) id(num uint64) uint64 {
	l, r := num>>halfBits&halfMask, num&halfMask
	for i := len(k.rounds) - 1; i >= 0; i-- {
		l, r = r^(mix64(l^k.rounds[i])&halfMask), l
	}
	return l<<halfBits | r
}

// key returns the key of a loaded id.
func (k *keyspace) key(id uint64) []byte { return k.keys[id*keyLen : (id+1)*keyLen] }

// absentKey renders the key of id >= n: same distribution over the key
// space as the loaded keys, guaranteed not to be one of them.
func (k *keyspace) absentKey(id uint64) []byte { return workload.FormatKey(k.num(id), keyLen) }

// parseKey recovers the key number from a key the store returned.
func parseKey(key []byte) (uint64, bool) {
	if len(key) != keyLen || string(key[:4]) != "user" {
		return 0, false
	}
	var n uint64
	for _, c := range key[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// value writes generation gen of id's value into dst: a pseudo-random first
// half and a zero second half, so snappy compresses it about 2x.
func (k *keyspace) value(dst []byte, id uint64, gen uint8) []byte {
	if cap(dst) < k.vlen {
		dst = make([]byte, k.vlen)
	}
	dst = dst[:k.vlen]
	x := mix64(k.seed ^ (id<<1 | uint64(gen)))
	half := k.vlen / 2
	i := 0
	for ; i+8 <= half; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
	for ; i < half; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dst[i] = byte(x)
	}
	clear(dst[half:])
	return dst
}

// matches reports whether got is generation gen of id's value.
func (k *keyspace) matches(got []byte, id uint64, gen uint8, scratch *[]byte) bool {
	*scratch = k.value(*scratch, id, gen)
	if int64(id) == k.corruptID {
		(*scratch)[0] ^= 0xff
	}
	return bytes.Equal(got, *scratch)
}

// readPlan is the pre-generated read input: which keys each sub-phase asks
// for, in order. Entries of cold that are negative name absent keys.
type readPlan struct {
	hot    []uint32 // ids of the fixed hot set
	cold   []int32  // id, or -(index into absent)-1
	absent []byte   // flat absent keys
	starts []uint32 // ranks in keyspace.sorted where short scans begin
	// long are the ranks where long scans begin: the same few evenly spaced
	// places in every run. A step costs more where more tables lie ahead of
	// the iterator, so the rate depends on the place (4x between the ends of
	// the kv-os key space); random places would make it depend on the seed.
	long [longScanPlaces]uint32
}

const (
	hotKeys    = 1000
	coldPlan   = 1 << 19
	absentKeys = 1 << 12
	scanStarts = 1 << 12

	longScanPlaces = 4
)

func newReadPlan(k *keyspace, scanLen int) *readPlan {
	rng := rand.New(rand.NewSource(int64(mix64(k.seed ^ 0x5eed))))
	p := &readPlan{
		hot:    make([]uint32, min(hotKeys, k.n)),
		cold:   make([]int32, coldPlan),
		starts: make([]uint32, scanStarts),
	}
	for i := range p.hot {
		p.hot[i] = uint32(rng.Intn(k.n))
	}
	for i := 0; i < absentKeys; i++ {
		p.absent = append(p.absent, k.absentKey(uint64(k.n+i))...)
	}
	for i := range p.cold {
		if i%8 == 7 {
			p.cold[i] = -int32(rng.Intn(absentKeys)) - 1
		} else {
			p.cold[i] = int32(rng.Intn(k.n))
		}
	}
	for i := range p.starts {
		p.starts[i] = uint32(rng.Intn(k.n - scanLen))
	}
	for i := range p.long {
		p.long[i] = uint32((2*i + 1) * (k.n - scanLen) / (2 * longScanPlaces))
	}
	return p
}
