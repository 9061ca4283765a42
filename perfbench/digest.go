package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
)

// digest is an FNV-1a 64 hasher over a canonical little-endian encoding of
// the values fed to it. The simulator is deterministic, so equal inputs
// must give equal digests, run after run and build after build.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) i64(v int64)   { d.u64(uint64(v)) }
func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) ints(xs []int) {
	d.u64(uint64(len(xs)))
	for _, x := range xs {
		d.i64(int64(x))
	}
}

func (d *digest) bytes(p []byte) {
	d.u64(uint64(len(p)))
	d.h.Write(p)
}

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// pinned checks a digest against its pinned value.
func pinned(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s digest %s, pinned %s", what, got, want)
	}
	return nil
}
