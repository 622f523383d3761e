package reduce

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// The block codec behind Compress: byte-oriented LZ77 in the LZ4
// block layout. An encoded block is a run of sequences
//
//	token | [literal-length bytes] | literals | u16 offset | [match-length bytes]
//
// where the token's high nibble is the literal count and its low nibble the
// match length minus lzMinMatch; a nibble of 15 continues in following bytes
// that each add their value, the first one below 255 ending the count. The
// offset (little endian, 1..65535) points back into the output already
// produced, and a match may overlap its own output (offset 1 is a run). The
// last sequence is literals only and ends the block with its last literal.
//
// The wire path wants the operator cheaper than the link it relieves, so the
// codec trades ratio for speed: no entropy stage, one hash probe per
// position searched, no allocation on either side.

const (
	lzMinMatch  = 4
	lzMaxOffset = 1<<16 - 1
	lzHashLog   = 12
	// The encoder keeps the block's tail literal so its 4- and 8-byte loads
	// never need a bounds branch: no match starts within the last lzTailStart
	// bytes and none extends into the last lzTailLits.
	lzTailStart = 12
	lzTailLits  = 5
	// lzSkipLog sets how fast the search stride grows through data that does
	// not match: one byte wider every 1<<lzSkipLog misses, so incompressible
	// input costs a few thousand probes per 64 KiB, not one per byte.
	lzSkipLog = 6
	// lzMaxInput keeps every position inside the table's uint32 entries.
	lzMaxInput = 1 << 31
	// lzMaxRatio is the most any encoded byte can stand for: a match-length
	// continuation byte of 255. A decoder is never asked for more output
	// than this times the input it was handed.
	lzMaxRatio = 255
)

// lzTable maps the hash of four bytes to the last position they were seen
// at. It is cleared per block; a zero entry is position 0, which is a real
// position, so no entry needs a validity bit.
type lzTable [1 << lzHashLog]uint32

func lzHash(v uint32) uint32 { return (v * 2654435761) >> (32 - lzHashLog) }

// lzBound is the largest encoding of n bytes: all literals, their length
// bytes, and the token.
func lzBound(n int) int { return n + n/255 + 16 }

// lzLenBytes is how many continuation bytes a length nibble overflows into.
func lzLenBytes(n int) int {
	if n < 15 {
		return 0
	}
	return (n-15)/255 + 1
}

// lzPutLen writes the continuation bytes of a length n whose nibble was 15:
// count of them — lzLenBytes(n), which the caller has already worked out for
// its room check — all 255 but the last, which is below 255 and ends the
// length.
func lzPutLen(dst []byte, d, n, count int) int {
	last := d + count - 1
	for ; d < last; d++ {
		dst[d] = 255
	}
	dst[d] = byte(n - 15 - (count-1)*255)
	return d + 1
}

// lzWide is how long a match or a run must be before the runtime's
// vectorised routines (memequal, memmove) take over from 8-byte steps:
// short matches, which are most of what float fields give, never pay for a
// call.
const lzWide = 64

// lzMatchLen counts how many bytes at src[a:] repeat src[b:] (b < a) without
// reading at or past limit. A match that has run lzWide bytes is extended
// through the runtime's vectorised memequal — the comparison of two string
// conversions compiles to it without copying — a KiB at a time, then 64
// bytes at a time, and the 8-byte step finds the mismatch inside the last
// chunk.
func lzMatchLen(src []byte, a, b, limit int) int {
	start := a
	for a+8 <= limit {
		if x := binary.LittleEndian.Uint64(src[a:]) ^ binary.LittleEndian.Uint64(src[b:]); x != 0 {
			return a - start + bits.TrailingZeros64(x)>>3
		}
		a, b = a+8, b+8
		if a-start == lzWide {
			for a+1024 <= limit && string(src[a:a+1024]) == string(src[b:b+1024]) {
				a, b = a+1024, b+1024
			}
			for a+64 <= limit && string(src[a:a+64]) == string(src[b:b+64]) {
				a, b = a+64, b+64
			}
		}
	}
	for a < limit && src[a] == src[b] {
		a, b = a+1, b+1
	}
	return a - start
}

// lzEncode encodes src into dst and reports the encoded length, or false
// when the encoding does not fit dst — which is how a caller that only
// wants a smaller block asks: it hands in len(src)-1 bytes of room. With
// lzBound(len(src)) bytes of room the encoding always fits.
func lzEncode(t *lzTable, dst, src []byte) (int, bool) {
	n := len(src)
	if n > lzMaxInput {
		return 0, false
	}
	d, anchor := 0, 0
	if n > lzTailStart {
		*t = lzTable{}
		matchStartEnd := n - lzTailStart // a match starts at or before this
		matchEnd := n - lzTailLits       // and ends at or before this
		t[lzHash(binary.LittleEndian.Uint32(src))] = 0
		ip := 1
	search:
		for {
			// Find the next position whose four bytes were seen before.
			var ref int
			for misses := 1 << lzSkipLog; ; misses++ {
				if ip > matchStartEnd {
					break search
				}
				v := binary.LittleEndian.Uint32(src[ip:])
				h := lzHash(v)
				ref = int(t[h])
				t[h] = uint32(ip)
				if ip-ref <= lzMaxOffset && binary.LittleEndian.Uint32(src[ref:]) == v {
					break
				}
				ip += misses >> lzSkipLog
			}
			// The stride may have stepped over the match's first bytes.
			for ip > anchor && ref > 0 && src[ip-1] == src[ref-1] {
				ip, ref = ip-1, ref-1
			}
			for {
				lit := ip - anchor
				ml := lzMatchLen(src, ip+lzMinMatch, ref+lzMinMatch, matchEnd)
				// One room check for the whole sequence — token, literals,
				// offset, and what each length spills past its nibble — with
				// the two spill counts kept for the writes below.
				litBytes, mlBytes := lzLenBytes(lit), lzLenBytes(ml)
				if d+1+litBytes+lit+2+mlBytes > len(dst) {
					return 0, false
				}
				tok := d
				d++
				if litBytes == 0 {
					dst[tok] = byte(lit << 4)
				} else {
					dst[tok] = 15 << 4
					d = lzPutLen(dst, d, lit, litBytes)
				}
				// src holds lzTailStart bytes past any match start, so eight
				// literals or fewer are one load; the store needs the room in
				// dst, and what it writes past the literals the offset and the
				// next sequence overwrite.
				if lit <= 8 && d+8 <= len(dst) {
					binary.LittleEndian.PutUint64(dst[d:], binary.LittleEndian.Uint64(src[anchor:]))
					d += lit
				} else {
					d += copy(dst[d:], src[anchor:ip])
				}
				dst[d], dst[d+1] = byte(ip-ref), byte((ip-ref)>>8)
				d += 2
				if mlBytes == 0 {
					dst[tok] |= byte(ml)
				} else {
					dst[tok] |= 15
					d = lzPutLen(dst, d, ml, mlBytes)
				}
				ip += lzMinMatch + ml
				anchor = ip
				if ip > matchStartEnd {
					break search
				}
				// Index the match's last byte with the three after it: the
				// boundary between two fields is the context that lets a
				// later repeat of both lock on at the same offset. Then try
				// the byte after the match before going back to searching.
				t[lzHash(binary.LittleEndian.Uint32(src[ip-1:]))] = uint32(ip - 1)
				v := binary.LittleEndian.Uint32(src[ip:])
				h := lzHash(v)
				ref = int(t[h])
				t[h] = uint32(ip)
				if ip-ref > lzMaxOffset || binary.LittleEndian.Uint32(src[ref:]) != v {
					break
				}
			}
			ip++
		}
	}
	lit := n - anchor
	litBytes := lzLenBytes(lit)
	if d+1+litBytes+lit > len(dst) {
		return 0, false
	}
	if litBytes > 0 {
		dst[d] = 15 << 4
		d = lzPutLen(dst, d+1, lit, litBytes)
	} else {
		dst[d] = byte(lit << 4)
		d++
	}
	d += copy(dst[d:], src[anchor:])
	return d, true
}

// lzRunStep is the largest multiple of a run's period that fits a word.
var lzRunStep = [8]uint8{1: 8, 2: 8, 3: 6, 4: 8, 5: 5, 6: 6, 7: 7}

var (
	errLZTruncated = errors.New("encoded payload is truncated")
	errLZOverrun   = errors.New("encoded payload decodes past the block's raw size")
	errLZOffset    = errors.New("encoded payload has a match offset outside the decoded bytes")
	errLZShort     = errors.New("encoded payload decodes short of the block's raw size")
)

// lzLen reads the continuation bytes of a length whose nibble was 15.
func lzLen(src []byte, s, n int) (int, int, error) {
	for {
		if s >= len(src) {
			return 0, 0, errLZTruncated
		}
		c := src[s]
		s++
		n += int(c) // at most 255 per input byte: no overflow
		if c != 255 {
			return n, s, nil
		}
	}
}

// lzDecode decodes src into dst. It succeeds only when src is a whole
// encoded block that produces exactly len(dst) bytes; it reads nothing
// outside src and writes nothing outside dst whatever src holds.
//
// Short literals, short matches and runs move as 8-byte words. A word store
// may land past the bytes it was for, but only inside dst and only ahead of
// the decoded front, where the next sequence writes over it: a block decodes
// only if its sequences go on to cover every byte of dst, and nothing is
// ever read from ahead of the front. The last seven bytes of either slice
// have no room for a word and take the plain copies.
func lzDecode(dst, src []byte) error {
	d, s := 0, 0
	for {
		if s >= len(src) {
			return errLZTruncated
		}
		tok := src[s]
		s++
		lit := int(tok >> 4)
		if lit <= 8 && s+8 <= len(src) && d+8 <= len(dst) {
			binary.LittleEndian.PutUint64(dst[d:], binary.LittleEndian.Uint64(src[s:]))
		} else {
			if lit == 15 {
				var err error
				if lit, s, err = lzLen(src, s, lit); err != nil {
					return err
				}
			}
			if lit > len(src)-s {
				return errLZTruncated
			}
			if lit > len(dst)-d {
				return errLZOverrun
			}
			copy(dst[d:], src[s:s+lit])
		}
		d, s = d+lit, s+lit
		if s == len(src) {
			break // the last sequence carries no match
		}
		if len(src)-s < 2 {
			return errLZTruncated
		}
		off := int(src[s]) | int(src[s+1])<<8
		s += 2
		if off == 0 || off > d {
			return errLZOffset
		}
		ml := int(tok & 15)
		if ml == 15 {
			var err error
			if ml, s, err = lzLen(src, s, ml); err != nil {
				return err
			}
		}
		ml += lzMinMatch
		if ml > len(dst)-d {
			return errLZOverrun
		}
		from, end := d-off, d+ml
		if wide := d+8 <= len(dst); wide && off >= 8 && ml <= 8 {
			binary.LittleEndian.PutUint64(dst[d:], binary.LittleEndian.Uint64(dst[from:]))
			d = end
			continue
		} else if wide && off < 8 {
			// An offset below 8 is a run of its off bytes: replicate them
			// into one word and store it at steps that are a multiple of off,
			// so every store is in phase with the run. A run that outgrows
			// lzWide is by then a match at an offset memmove handles better,
			// and the loop below finishes it.
			p := binary.LittleEndian.Uint64(dst[from:]) & (1<<(8*uint(off)) - 1)
			p |= p << (8 * uint(off))
			p |= p << (16 * uint(off))
			p |= p << (32 * uint(off))
			stop := min(end, from+lzWide, len(dst)-7)
			for step := int(lzRunStep[off]); d < stop; d += step {
				binary.LittleEndian.PutUint64(dst[d:], p)
			}
		}
		// A match may overlap the bytes it produces: copy what exists, which
		// doubles what the next round can copy. Without overlap that is one
		// copy, and after a run whose last store passed end it is none.
		for d < end {
			d += copy(dst[d:end], dst[from:d])
		}
		d = end
	}
	if d != len(dst) {
		return errLZShort
	}
	return nil
}
