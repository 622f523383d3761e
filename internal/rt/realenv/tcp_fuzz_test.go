package realenv

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the frame decoder. The invariants:
// a corrupt, truncated, or adversarial frame returns an error (or decodes
// cleanly, for inputs the fuzzer mutates into valid frames) — it must never
// panic, and it must never allocate past maxFrameLen no matter what the
// descriptors claim. The allocation bound is structural: descriptors are
// validated against the aggregate maxFrameLen cap before any payload is
// read, and claimed payload lengths are proven against the wire one
// payloadChunk at a time before the full size is allocated.
func FuzzReadFrame(f *testing.F) {
	// Seed with real frames of every shape the sender can produce…
	conn := &memConn{}
	tr := newTCPTransport(conn, 0)
	c := New().Ctx()
	for i, m := range frameMessages() {
		conn.buf.Reset()
		tr.Send(c, i%7, m)
		f.Add(append([]byte(nil), conn.buf.Bytes()...))
	}
	// …plus targeted corruptions: bad magic, absurd counts, claimed payload
	// lengths with no bytes behind them.
	bad := [][]byte{
		{},
		{0x36, 0x50, 0x49, 0x5a}, // magic alone, truncated
		binary.LittleEndian.AppendUint32(nil, 0xdeadbeef), // wrong magic
	}
	huge := binary.LittleEndian.AppendUint32(nil, frameMagic)
	huge = binary.LittleEndian.AppendUint32(huge, 0)
	huge = appendI64(huge, 0, 0, 0, 0, 0, 0, 0)            // to..lost, nDisk=0
	huge = appendI64(huge, 1)                              // nBlocks=1
	huge = appendI64(huge, 0, 0, 0, 0, 1<<30, 0, 0, 1<<30) // 1 GiB claim, no data
	bad = append(bad, huge)
	for _, b := range bad {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		to, m, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return // rejected: exactly what corrupt input must produce
		}
		// Accidentally-valid frames must still respect the structural caps.
		if len(m.Blocks) > maxBatchLen || len(m.Disk) > maxBatchLen {
			t.Fatalf("decoded frame exceeds batch caps: %d blocks, %d refs", len(m.Blocks), len(m.Disk))
		}
		var payload int64
		for _, b := range m.Blocks {
			payload += int64(len(b.Data))
		}
		if payload > maxFrameLen {
			t.Fatalf("decoded frame carries %d payload bytes, cap is %d", payload, int64(maxFrameLen))
		}
		_ = to
		// A decoded frame must re-encode and decode identically (the wire
		// format is unambiguous).
		rt2 := &memConn{}
		tr2 := newTCPTransport(rt2, 0)
		tr2.Send(c, 0, m)
		_, m2, err := readFrame(&rt2.buf)
		if err != nil {
			t.Fatalf("re-encode of a valid frame failed to decode: %v", err)
		}
		if len(m2.Blocks) != len(m.Blocks) || len(m2.Disk) != len(m.Disk) ||
			m2.Fin != m.Fin || m2.From != m.From {
			t.Fatalf("re-encode changed the frame: %+v vs %+v", m, m2)
		}
	})
}
