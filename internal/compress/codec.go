// Package compress provides the block codecs used by SSTable data blocks.
//
// Compression is the dominant computation in the paper's compaction pipeline
// (Step 5 COMPRESS is "almost the most costly" computational step, §IV-B),
// so this package implements the paper's codec — the Snappy block format —
// from scratch rather than treating compression as a no-op. A DEFLATE codec
// (heavier CPU) and an identity codec (no CPU) are also provided; switching
// codecs moves the pipeline between CPU-bound and I/O-bound regimes, which
// the codec ablation (`pcpbench -fig codec`) shows.
package compress

import (
	"fmt"
	"sync"
)

// Kind identifies a codec in the on-disk format. The byte value is stored in
// every block trailer, so values must never be reused or renumbered.
type Kind byte

const (
	// None stores blocks verbatim.
	None Kind = 0
	// Snappy is the default codec, matching the paper's configuration.
	Snappy Kind = 1
	// Flate uses DEFLATE at the default level: better ratio, much more CPU.
	Flate Kind = 2
)

// String returns the codec's human-readable name.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Snappy:
		return "snappy"
	case Flate:
		return "flate"
	default:
		return fmt.Sprintf("codec(%d)", byte(k))
	}
}

// ParseKind maps a codec name to its Kind.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "none", "":
		return None, nil
	case "snappy":
		return Snappy, nil
	case "flate":
		return Flate, nil
	default:
		return None, fmt.Errorf("compress: unknown codec %q", name)
	}
}

// Codec compresses and decompresses whole blocks. Implementations must be
// safe for concurrent use: the parallel compaction pipeline calls them from
// many goroutines.
type Codec interface {
	// Kind returns the on-disk identifier of the codec.
	Kind() Kind
	// Compress appends the compressed form of src to dst and returns the
	// extended slice.
	Compress(dst, src []byte) []byte
	// Decompress appends the decompressed form of src to dst and returns the
	// extended slice. It fails if src is not a valid encoding.
	Decompress(dst, src []byte) ([]byte, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[Kind]Codec{}
)

// Register installs a codec for its Kind. Registering the same Kind twice
// panics: codecs define an on-disk format and must be unambiguous.
func Register(c Codec) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[c.Kind()]; dup {
		panic(fmt.Sprintf("compress: codec %v registered twice", c.Kind()))
	}
	registry[c.Kind()] = c
}

// ByKind returns the codec registered for k.
func ByKind(k Kind) (Codec, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	c, ok := registry[k]
	if !ok {
		return nil, fmt.Errorf("compress: no codec registered for %v", k)
	}
	return c, nil
}

// MustByKind is ByKind for codecs known to be registered (the three built-ins).
func MustByKind(k Kind) Codec {
	c, err := ByKind(k)
	if err != nil {
		panic(err)
	}
	return c
}

func init() {
	Register(noneCodec{})
	Register(snappyCodec{})
	Register(newFlateCodec())
}

// noneCodec stores blocks verbatim.
type noneCodec struct{}

func (noneCodec) Kind() Kind { return None }

func (noneCodec) Compress(dst, src []byte) []byte { return append(dst, src...) }

func (noneCodec) Decompress(dst, src []byte) ([]byte, error) { return append(dst, src...), nil }
