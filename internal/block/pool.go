package block

import (
	"sync"
	"unsafe"
)

// Payload pooling: steady-state transfer moves millions of fine-grain blocks
// whose payloads are all near the configured block size, so recycling them
// through size-class pools drops the per-block allocation cost of the hot
// path to almost nothing. Producers obtain payloads with GetPayload, hand
// them to the runtime, and consumers return them with Block.Release once the
// analysis is done with the data.
//
// Classes are powers of two from minPoolShift to maxPoolShift; requests
// outside that range fall back to plain allocation and are dropped on
// Release.
const (
	minPoolShift = 9  // 512 B
	maxPoolShift = 26 // 64 MiB
)

// payloadPools[s] holds released buffers of capacity exactly 1<<s, each as
// the pointer to its first byte: a pointer fits an interface word, so Put
// does not box a slice header per release, and the class index already says
// how long the array behind it is.
var payloadPools [maxPoolShift + 1]sync.Pool

// poolShift returns the size class for a payload of n bytes: the smallest
// in-range power of two ≥ n, or -1 when n is outside the pooled range.
func poolShift(n int) int {
	if n <= 0 || n > 1<<maxPoolShift {
		return -1
	}
	s := minPoolShift
	for 1<<s < n {
		s++
	}
	return s
}

// GetPayload returns a payload slice of length n, reusing a released buffer
// when one of a suitable class is available. The contents are unspecified —
// the caller is expected to overwrite all n bytes. Payloads larger than the
// pooled range are allocated directly.
func GetPayload(n int) []byte {
	if n <= 0 {
		return nil
	}
	s := poolShift(n)
	if s < 0 {
		return make([]byte, n)
	}
	if v := payloadPools[s].Get(); v != nil {
		return unsafe.Slice(v.(*byte), 1<<s)[:n]
	}
	return make([]byte, n, 1<<s)
}

// putPayload recycles a payload whose capacity is exactly one of the pooled
// classes; anything else (caller-allocated slices of odd capacity, oversized
// buffers) is left for the garbage collector.
func putPayload(b []byte) {
	c := cap(b)
	if c < 1<<minPoolShift || c > 1<<maxPoolShift || c&(c-1) != 0 {
		return
	}
	s := 0
	for 1<<s < c {
		s++
	}
	payloadPools[s].Put(unsafe.SliceData(b))
}

// Release returns the block's payload to the pool and clears Data. Call it
// once the analysis is completely done with the bytes: after Release the
// payload may be handed to another block at any moment, so retaining a
// reference corrupts data. Releasing a nil or already-released block is a
// no-op, as is releasing a payload that did not come from (and cannot serve)
// the pool.
func (b *Block) Release() {
	if b == nil || b.Data == nil {
		return
	}
	putPayload(b.Data)
	b.Data = nil
}
