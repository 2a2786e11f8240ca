package main

import (
	"encoding/binary"
	"sort"

	"s4/internal/types"
)

// The bench's record of what every object holds. Block contents are a
// pure function of (seed, object, block, version), so the record keeps
// only version numbers and the bench-clock times they were
// acknowledged, and regenerates the expected bytes on demand.

const (
	blocksPerObject = 8
	objectBytes     = blocksPerObject * types.BlockSize
	stampLen        = 24
)

// pattern holds the base bytes of every (object, block).
type pattern struct {
	base [][]byte // [obj*blocksPerObject+blk]
}

func newPattern(seed int64, objects int) *pattern {
	p := &pattern{base: make([][]byte, objects*blocksPerObject)}
	for i := range p.base {
		b := make([]byte, types.BlockSize)
		x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
		for j := range b {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			b[j] = 'a' + byte(x%26)
		}
		p.base[i] = b
	}
	return p
}

// block writes block blk of object obj at version ver into dst: the
// base bytes with a stamp whose place and bytes depend on ver, so two
// consecutive versions differ in two small regions.
func (p *pattern) block(dst []byte, obj, blk, ver int) {
	copy(dst, p.base[obj*blocksPerObject+blk])
	pos := int((uint64(ver)*2654435761 + uint64(blk)*40503) % (types.BlockSize - stampLen))
	s := dst[pos : pos+stampLen]
	binary.LittleEndian.PutUint64(s[0:], uint64(ver))
	binary.LittleEndian.PutUint64(s[8:], uint64(obj))
	binary.LittleEndian.PutUint64(s[16:], uint64(blk)|0xA5A5<<48)
}

// object writes every block of obj at version ver into dst.
func (p *pattern) object(dst []byte, obj, ver int) {
	for b := 0; b < blocksPerObject; b++ {
		p.block(dst[b*types.BlockSize:(b+1)*types.BlockSize], obj, b, ver)
	}
}

// verAt is one acknowledged version: the bench-clock time the write
// returned, and the version it wrote.
type verAt struct {
	ack types.Timestamp
	ver int
}

// versionAt returns the version current at time at: the newest one
// acknowledged at or before it. The log is in ack order; ok is false
// when at precedes every entry.
func versionAt(log []verAt, at types.Timestamp) (ver int, ok bool) {
	i := sort.Search(len(log), func(i int) bool { return log[i].ack > at })
	if i == 0 {
		return 0, false
	}
	return log[i-1].ver, true
}
