package compress

import (
	"encoding/binary"
	"errors"
	"sync"
)

// This file implements the Snappy block format
// (https://github.com/google/snappy/blob/main/format_description.txt)
// from scratch using only the standard library.
//
// Layout: a uvarint header with the decompressed length, followed by a
// sequence of elements. Each element starts with a tag byte whose low two
// bits select the element type:
//
//	00 literal — upper 6 bits encode length-1 (0..59), or 60..63 meaning the
//	   length-1 follows in 1..4 little-endian bytes;
//	01 copy, 1-byte offset — length 4..11 in bits 2..4, offset 0..2047 from
//	   bits 5..7 plus one trailing byte;
//	10 copy, 2-byte offset — length 1..64 in the upper 6 bits, offset in a
//	   trailing little-endian uint16;
//	11 copy, 4-byte offset — as above with a trailing uint32.
//
// The encoder works on independent 64 KiB chunks with a greedy hash-table
// match finder; it only ever emits literals and 2-byte-offset copies, which
// keeps it simple while staying within a few percent of the reference
// encoder's ratio on SSTable blocks. The decoder accepts the full format.

const (
	snappyTagLiteral = 0x00
	snappyTagCopy1   = 0x01
	snappyTagCopy2   = 0x02
	snappyTagCopy4   = 0x03

	snappyMaxChunk = 65536 // encoder chunk; offsets always fit in 16 bits
	snappyMinMatch = 4
)

// Errors returned by the snappy decoder.
var (
	ErrSnappyCorrupt  = errors.New("snappy: corrupt input")
	ErrSnappyTooLarge = errors.New("snappy: decoded block is too large")
)

type snappyCodec struct{}

func (snappyCodec) Kind() Kind { return Snappy }

func (snappyCodec) Compress(dst, src []byte) []byte { return SnappyEncode(dst, src) }

func (snappyCodec) Decompress(dst, src []byte) ([]byte, error) { return SnappyDecode(dst, src) }

// SnappyMaxEncodedLen returns an upper bound on the encoded length of an
// input of size n.
func SnappyMaxEncodedLen(n int) int {
	// Worst case: header plus, per chunk, literals with tag overhead. A
	// single literal run of length L costs at most 5+L bytes; matches only
	// shrink output. 32/6 mirrors the reference bound and is comfortably
	// safe for the chunked encoder.
	return 10 + n + n/6 + 16
}

// SnappyEncode appends the Snappy-format encoding of src to dst.
func SnappyEncode(dst, src []byte) []byte {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(src)))
	dst = append(dst, hdr[:n]...)

	for len(src) > 0 {
		chunk := src
		if len(chunk) > snappyMaxChunk {
			chunk = chunk[:snappyMaxChunk]
		}
		src = src[len(chunk):]
		if len(chunk) < snappyMinMatch+1 {
			dst = snappyEmitLiteral(dst, chunk)
			continue
		}
		dst = snappyEncodeChunk(dst, chunk)
	}
	return dst
}

// snappyHash maps a 4-byte little-endian sequence to a table index.
func snappyHash(u uint32, shift uint) uint32 {
	return (u * 0x1e35a7bd) >> shift
}

func snappyLoad32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// snappyMaxTableSize is the match finder's largest hash table.
const snappyMaxTableSize = 1 << 14

// snappyTables recycles match-finder tables. A table declared in
// snappyEncodeChunk would be zeroed whole (64 KiB) on every call, while a
// 4 KiB block uses only its first 4096 entries.
var snappyTables = sync.Pool{New: func() any { return new([snappyMaxTableSize]int32) }}

// snappyEncodeChunk greedily encodes one chunk (≤ 64 KiB) of src.
func snappyEncodeChunk(dst, src []byte) []byte {
	// Size the table to the chunk to keep small blocks cheap.
	shift, tableSize := uint(32-8), 1<<8
	for tableSize < snappyMaxTableSize && tableSize < len(src) {
		shift--
		tableSize *= 2
	}
	pooled := snappyTables.Get().(*[snappyMaxTableSize]int32)
	table := pooled[:tableSize]
	for i := range table {
		table[i] = -1
	}

	nextEmit := 0
	s := 0
	limit := len(src) - snappyMinMatch
	for s <= limit {
		h := snappyHash(snappyLoad32(src, s), shift)
		cand := int(table[h])
		table[h] = int32(s)
		if cand < 0 || snappyLoad32(src, cand) != snappyLoad32(src, s) {
			s++
			continue
		}
		// Found a match: flush the pending literal, then extend the match.
		if nextEmit < s {
			dst = snappyEmitLiteral(dst, src[nextEmit:s])
		}
		base := s
		s += snappyMinMatch
		m := cand + snappyMinMatch
		for s < len(src) && src[s] == src[m] {
			s++
			m++
		}
		dst = snappyEmitCopy(dst, base-cand, s-base)
		nextEmit = s
		// Re-seed the table at the match end so runs keep matching.
		if s <= limit {
			table[snappyHash(snappyLoad32(src, s-1), shift)] = int32(s - 1)
		}
	}
	if nextEmit < len(src) {
		dst = snappyEmitLiteral(dst, src[nextEmit:])
	}
	snappyTables.Put(pooled)
	return dst
}

// snappyEmitLiteral appends a literal element for lit.
func snappyEmitLiteral(dst, lit []byte) []byte {
	if len(lit) == 0 {
		return dst
	}
	n := len(lit) - 1
	switch {
	case n < 60:
		dst = append(dst, byte(n)<<2|snappyTagLiteral)
	case n < 1<<8:
		dst = append(dst, 60<<2|snappyTagLiteral, byte(n))
	case n < 1<<16:
		dst = append(dst, 61<<2|snappyTagLiteral, byte(n), byte(n>>8))
	case n < 1<<24:
		dst = append(dst, 62<<2|snappyTagLiteral, byte(n), byte(n>>8), byte(n>>16))
	default:
		dst = append(dst, 63<<2|snappyTagLiteral, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return append(dst, lit...)
}

// snappyEmitCopy appends copy elements covering length bytes at the given
// back-reference offset (1 ≤ offset ≤ 65535, length ≥ 1).
func snappyEmitCopy(dst []byte, offset, length int) []byte {
	for length > 64 {
		dst = append(dst, 63<<2|snappyTagCopy2, byte(offset), byte(offset>>8))
		length -= 64
	}
	return append(dst, byte(length-1)<<2|snappyTagCopy2, byte(offset), byte(offset>>8))
}

// SnappyDecodedLen returns the decompressed length recorded in a
// Snappy-format buffer and the number of header bytes.
func SnappyDecodedLen(src []byte) (int, int, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, ErrSnappyCorrupt
	}
	const maxDecoded = 1 << 31
	if v > maxDecoded {
		return 0, 0, ErrSnappyTooLarge
	}
	return int(v), n, nil
}

// SnappyDecode appends the decoding of src to dst. It accepts every element
// type in the format, including the 1- and 4-byte-offset copies the encoder
// above never emits.
func SnappyDecode(dst, src []byte) ([]byte, error) {
	dLen, hdr, err := SnappyDecodedLen(src)
	if err != nil {
		return dst, err
	}
	src = src[hdr:]

	base := len(dst)
	if cap(dst)-base < dLen {
		grown := make([]byte, base, base+dLen)
		copy(grown, dst)
		dst = grown
	}
	out := dst[base : base+dLen]
	d, s := 0, 0
	for s < len(src) {
		tag := src[s] & 0x03
		var length, offset int
		switch tag {
		case snappyTagLiteral:
			x := int(src[s] >> 2)
			s++
			switch {
			case x < 60:
				// length is x+1, no extra bytes
			case x == 60:
				if s+1 > len(src) {
					return dst, ErrSnappyCorrupt
				}
				x = int(src[s])
				s++
			case x == 61:
				if s+2 > len(src) {
					return dst, ErrSnappyCorrupt
				}
				x = int(binary.LittleEndian.Uint16(src[s:]))
				s += 2
			case x == 62:
				if s+3 > len(src) {
					return dst, ErrSnappyCorrupt
				}
				x = int(src[s]) | int(src[s+1])<<8 | int(src[s+2])<<16
				s += 3
			default: // 63
				if s+4 > len(src) {
					return dst, ErrSnappyCorrupt
				}
				x32 := binary.LittleEndian.Uint32(src[s:])
				if x32 > 1<<30 {
					return dst, ErrSnappyCorrupt
				}
				x = int(x32)
				s += 4
			}
			length = x + 1
			if length > len(src)-s || length > dLen-d {
				return dst, ErrSnappyCorrupt
			}
			copy(out[d:], src[s:s+length])
			d += length
			s += length
			continue

		case snappyTagCopy1:
			if s+2 > len(src) {
				return dst, ErrSnappyCorrupt
			}
			length = 4 + int(src[s]>>2)&0x07
			offset = int(src[s]&0xe0)<<3 | int(src[s+1])
			s += 2

		case snappyTagCopy2:
			if s+3 > len(src) {
				return dst, ErrSnappyCorrupt
			}
			length = 1 + int(src[s]>>2)
			offset = int(binary.LittleEndian.Uint16(src[s+1:]))
			s += 3

		default: // snappyTagCopy4
			if s+5 > len(src) {
				return dst, ErrSnappyCorrupt
			}
			length = 1 + int(src[s]>>2)
			off32 := binary.LittleEndian.Uint32(src[s+1:])
			if off32 > 1<<30 {
				return dst, ErrSnappyCorrupt
			}
			offset = int(off32)
			s += 5
		}

		if offset <= 0 || offset > d || length > dLen-d {
			return dst, ErrSnappyCorrupt
		}
		// Copies may overlap their own output (offset < length): copy
		// byte-by-byte in that case so earlier output feeds later output.
		if offset >= length {
			copy(out[d:d+length], out[d-offset:])
			d += length
		} else {
			for i := 0; i < length; i++ {
				out[d] = out[d-offset]
				d++
			}
		}
	}
	if d != dLen {
		return dst, ErrSnappyCorrupt
	}
	return dst[:base+dLen], nil
}
