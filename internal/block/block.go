// Package block defines the fine-grain data block that flows through the
// Zipper runtime. Per the paper (§4.2), a block carries all the information
// the analysis application needs to process it independently: the time step
// index, the producing process id, and its position in the global input
// domain. Blocks are the unit of pipelining, transfer, work-stealing, and
// analysis.
package block

import "fmt"

// ID uniquely identifies a block within a workflow run.
type ID struct {
	Rank int // producing process id
	Step int // simulation time step index
	Seq  int // block sequence number within (rank, step)
}

// String formats the ID for file names and diagnostics.
func (id ID) String() string { return fmt.Sprintf("b%d_s%d_q%d", id.Rank, id.Step, id.Seq) }

// Block is one fine-grain unit of simulation output.
type Block struct {
	ID ID
	// Offset is the block's position in the producer's step output, so the
	// consumer can place it in the global input domain.
	Offset int64
	// Bytes is the logical payload size. In simulation mode Data is nil and
	// Bytes carries the size; in real mode Bytes == int64(len(Data)).
	Bytes int64
	// Data is the payload (nil in simulation mode).
	Data []byte
	// OnDisk marks blocks that arrived through the parallel file system
	// (set only by a store's ReadBlock), so the Preserve-mode output thread
	// need not store them again. Writing a block to a store does not set it:
	// the application may be reading the block at that moment.
	OnDisk bool
	// Enc names the reduction operator applied to the payload (0 = none; the
	// values are internal/reduce.Kind). While Enc is nonzero, Data holds the
	// encoded payload and Bytes still carries the raw (decoded) size, so
	// buffer accounting and analysis-side placement are unaffected by what
	// happened on the wire.
	Enc uint8
	// EncBytes is the encoded payload size while Enc is nonzero: the bytes
	// the block actually occupies on the wire and in a spill store. In real
	// mode EncBytes == int64(len(Data)); in simulation mode Data stays nil
	// and EncBytes carries the modeled reduced size.
	EncBytes int64

	// gen counts how many times the header has been retired for reuse (see
	// Recycler); accessed atomically.
	gen uint32
}

// WireBytes reports the bytes this block occupies on the wire: the encoded
// size while a reduction operator is applied, the raw size otherwise.
func (b *Block) WireBytes() int64 {
	if b.Enc != 0 {
		return b.EncBytes
	}
	return b.Bytes
}

// New returns a real-mode block wrapping data.
func New(id ID, offset int64, data []byte) *Block {
	return &Block{ID: id, Offset: offset, Bytes: int64(len(data)), Data: data}
}

// NewSized returns a simulation-mode block carrying only a size.
func NewSized(id ID, offset, bytes int64) *Block {
	return &Block{ID: id, Offset: offset, Bytes: bytes}
}
