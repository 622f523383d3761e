package block

import "testing"

func TestPoolShiftClasses(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{0, -1},
		{-5, -1},
		{1, minPoolShift},
		{1 << minPoolShift, minPoolShift},
		{1<<minPoolShift + 1, minPoolShift + 1},
		{1 << 20, 20},
		{1<<20 + 1, 21},
		{1 << maxPoolShift, maxPoolShift},
		{1<<maxPoolShift + 1, -1},
	}
	for _, c := range cases {
		if got := poolShift(c.n); got != c.want {
			t.Errorf("poolShift(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestGetPayloadSizes(t *testing.T) {
	b := GetPayload(1000)
	if len(b) != 1000 || cap(b) != 1024 {
		t.Fatalf("len=%d cap=%d, want 1000/1024", len(b), cap(b))
	}
	if b := GetPayload(0); b != nil {
		t.Fatalf("zero-length payload = %v", b)
	}
	// Oversized payloads fall back to exact allocation.
	huge := GetPayload(1<<maxPoolShift + 1)
	if len(huge) != 1<<maxPoolShift+1 {
		t.Fatalf("oversized len = %d", len(huge))
	}
}

func TestReleaseRecyclesPayload(t *testing.T) {
	// sync.Pool randomly drops items under the race detector, so demand
	// reuse at least once across several attempts rather than every time.
	reused := false
	for i := 0; i < 64 && !reused; i++ {
		b := &Block{Data: GetPayload(4096)}
		p0 := &b.Data[0]
		b.Release()
		if b.Data != nil {
			t.Fatal("Release did not clear Data")
		}
		b.Release() // double release is a no-op
		next := GetPayload(4096)
		reused = &next[0] == p0
	}
	if !reused {
		t.Fatal("released payload never reused")
	}
}

func TestReleaseForeignPayloadIsSafe(t *testing.T) {
	// A caller-allocated odd-capacity slice is dropped, not pooled: a later
	// GetPayload of its class must still return a full-capacity buffer.
	b := &Block{Data: make([]byte, 100)}
	b.Release()
	got := GetPayload(100)
	if len(got) != 100 || cap(got) < 100 {
		t.Fatalf("len=%d cap=%d after foreign release", len(got), cap(got))
	}
	var nilBlock *Block
	nilBlock.Release() // must not panic
}

func TestPooledPayloadsDoNotAlias(t *testing.T) {
	// Two live payloads of the same class must never share a backing array,
	// regardless of how many releases happened in between.
	a := GetPayload(2048)
	for i := range a {
		a[i] = 0xAA
	}
	tmp := &Block{Data: GetPayload(2048)}
	tmp.Release()
	b := GetPayload(2048)
	for i := range b {
		b[i] = 0xBB
	}
	for i := range a {
		if a[i] != 0xAA {
			t.Fatalf("live payload corrupted at %d after pool churn", i)
		}
	}
}

// A pooled payload's round trip is what every block pays twice (producer
// Get, consumer Release): it must not allocate — not even the interface box
// a []byte costs when it is Put into a sync.Pool.
func TestPayloadCycleDoesNotAllocate(t *testing.T) {
	var b Block
	b.Data = GetPayload(4096)
	b.Release() // warm the class
	if n := testing.AllocsPerRun(1000, func() {
		b.Data = GetPayload(4096)
		b.Release()
	}); n != 0 {
		t.Fatalf("GetPayload + Release allocates %.0f times per cycle, want 0", n)
	}
}
