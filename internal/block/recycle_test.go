package block

import "testing"

// TestRecyclerCarry pins the carry. A batch of retired headers whose payloads
// are at most CarryMax keeps them while fewer than carryDepth batches do, and
// Headers releases them before it hands the headers out. A payload above
// CarryMax is released by Retire, and every payload of a batch beyond the
// bound when the batch is handed in. Whatever the mix, every payload goes
// back to the pool exactly once.
func TestRecyclerCarry(t *testing.T) {
	r := NewRecycler(0)
	released := map[int]map[*byte]bool{} // payload class → payloads handed in
	retired := func(sizes ...int) []*Block {
		s := freshHeaders(nil, int(r.batch))
		for i, b := range s {
			if n := sizes[i%len(sizes)]; n > 0 {
				b.Data = GetPayload(n)
				if released[cap(b.Data)] == nil {
					released[cap(b.Data)] = map[*byte]bool{}
				}
				released[cap(b.Data)][&b.Data[0]] = true
			}
			b.Retire()
		}
		return s
	}
	carrying := func(s []*Block) (kept, none bool) {
		kept, none = true, true
		for _, b := range s {
			kept = kept && b.Data != nil
			none = none && b.Data == nil
		}
		return kept, none
	}

	for i := 0; i <= carryDepth; i++ {
		full := retired(CarryMax)
		r.PutHeaders(full)
		kept, none := carrying(full)
		if i < carryDepth && !kept {
			t.Fatalf("batch %d: payloads of CarryMax bytes did not stay on their headers", i)
		}
		if i == carryDepth && !none {
			t.Fatalf("the batch beyond the %d carried kept its payloads", carryDepth)
		}
	}
	for i := 0; i <= carryDepth; i++ {
		if _, none := carrying(r.Headers(nil)); !none {
			t.Fatalf("Headers call %d handed out a header with its payload still on", i)
		}
	}

	mixed := retired(CarryMax, CarryMax+1, 0, 512)
	r.PutHeaders(mixed)
	for i, b := range mixed {
		if carry := i%4 == 0 || i%4 == 3; (b.Data != nil) != carry {
			t.Fatalf("mixed batch, header %d: %d payload bytes on it after the hand-in, carried %v", i, len(b.Data), carry)
		}
	}
	if _, none := carrying(r.Headers(nil)); !none {
		t.Fatal("Headers handed out a header of the mixed batch with its payload still on")
	}

	for class, payloads := range released {
		seen := map[*byte]int{}
		for range 2 * len(payloads) {
			if p := GetPayload(class); payloads[&p[0]] {
				seen[&p[0]]++
			}
		}
		for _, n := range seen {
			if n != 1 {
				t.Fatalf("a %d B payload came out of the pool %d times", class, n)
			}
		}
		// The race detector's pool drops a quarter of what it is handed, and
		// a class may have only two payloads here.
		if !raceEnabled && len(seen) != len(payloads) {
			t.Errorf("%d of %d released %d B payloads came back out of the pool", len(seen), len(payloads), class)
		}
	}
}
