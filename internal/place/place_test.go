package place_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"zipper/internal/flow"
	"zipper/internal/place"
	"zipper/internal/rt/realenv"
)

func TestRankAffinePick(t *testing.T) {
	v := place.View{Members: []int{2, 5, 9}}
	pol := place.RankAffine()
	for rank := 0; rank < 9; rank++ {
		addr, ok := pol.Pick(rank, v)
		if !ok || addr != v.Members[rank%3] {
			t.Fatalf("rank %d: got %d ok=%v, want %d", rank, addr, ok, v.Members[rank%3])
		}
	}
	if _, ok := pol.Pick(0, place.View{}); ok {
		t.Fatal("empty membership resolved")
	}
}

func TestLeastOccupancyPick(t *testing.T) {
	occ := map[int]int{2: 8, 5: 1, 9: 8}
	v := place.View{
		Members: []int{2, 5, 9},
		Load: func(addr int) (int, int, bool) {
			q, ok := occ[addr]
			return q, 10, ok
		},
	}
	pol := place.LeastOccupancy()
	for rank := 0; rank < 6; rank++ {
		if addr, _ := pol.Pick(rank, v); addr != 5 {
			t.Fatalf("rank %d landed on %d, want the emptiest endpoint 5", rank, addr)
		}
	}
	// All-equal occupancy must reproduce the rank-affine assignment, so an
	// idle pool never flaps between endpoints.
	for a := range occ {
		occ[a] = 3
	}
	for rank := 0; rank < 6; rank++ {
		if addr, _ := pol.Pick(rank, v); addr != v.Members[rank%3] {
			t.Fatalf("tied occupancy: rank %d landed on %d, want rank-affine %d",
				rank, addr, v.Members[rank%3])
		}
	}
	// No load probe at all degenerates to rank-affine.
	if addr, _ := pol.Pick(4, place.View{Members: []int{2, 5, 9}}); addr != 5 {
		t.Fatalf("nil load: rank 4 landed on %d, want rank-affine 5", addr)
	}
}

func TestKindNamesAndValidation(t *testing.T) {
	cases := map[place.Kind]string{
		place.KindRankAffine:     "rank-affine",
		place.KindLeastOccupancy: "least-occupancy",
	}
	for k, want := range cases {
		if !k.Valid() || k.String() != want || k.New().Name() != want {
			t.Fatalf("kind %d: valid=%v string=%q policy=%q, want %q",
				int(k), k.Valid(), k, k.New().Name(), want)
		}
	}
	for _, n := range []int{2, 42, -1} {
		if bad := place.Kind(n); bad.Valid() || bad.String() != fmt.Sprintf("unknown(%d)", n) {
			t.Fatalf("out-of-range kind %d: valid=%v string=%q", n, bad.Valid(), bad)
		}
	}
	var zero place.Kind
	if zero != place.KindRankAffine {
		t.Fatal("the zero Kind must be rank-affine (the byte-identical default)")
	}
}

func TestDirectoryMembershipAndClaims(t *testing.T) {
	d := place.New(place.RankAffine(), nil)
	if _, ok := d.Peek(0); ok {
		t.Fatal("empty directory resolved")
	}
	d.Add(7)
	d.Add(3)
	d.Add(7) // duplicate: no-op
	if got := d.Members(); len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("members = %v, want [3 7]", got)
	}
	if d.Epoch() != 2 || len(d.Members()) != 2 {
		t.Fatalf("epoch %d members %v, want 2 and two", d.Epoch(), d.Members())
	}
	addr, ok := d.Claim(1)
	if !ok || addr != 7 {
		t.Fatalf("Claim(1) = %d %v, want 7 true", addr, ok)
	}
	d.Remove(7)
	if a, _ := d.Peek(1); a != 3 {
		t.Fatalf("after Remove(7), Peek(1) = %d, want 3", a)
	}
	// Quiesce must wait out the in-flight claim and return once Done lands.
	env := realenv.New()
	done := make(chan struct{})
	go func() {
		d.Quiesce(env.Ctx(), 7)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Quiesce returned with a claim still in flight")
	case <-time.After(5 * time.Millisecond):
	}
	d.Done(7)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Quiesce never observed the released claim")
	}
}

func TestDirectoryDoneWithoutClaimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Done without a claim did not panic")
		}
	}()
	place.New(place.RankAffine(), nil).Done(3)
}

// TestDirectoryLeastOccupancyReadsLevels wires real flow.Level gauges in and
// checks the directory steers toward the emptiest endpoint as fills change.
func TestDirectoryLeastOccupancyReadsLevels(t *testing.T) {
	levels := map[int]*flow.Level{}
	for _, addr := range []int{4, 5} {
		lv := flow.NewLevel(10, 0)
		levels[addr] = &lv
	}
	d := place.New(place.LeastOccupancy(), func(addr int) *flow.Level { return levels[addr] })
	d.Add(4)
	d.Add(5)
	levels[4].Set(0, 9)
	levels[5].Set(0, 1)
	if a, _ := d.Peek(0); a != 5 {
		t.Fatalf("Peek(0) = %d, want the emptier 5", a)
	}
	levels[4].Set(time.Millisecond, 0)
	levels[5].Set(time.Millisecond, 9)
	if a, _ := d.Peek(1); a != 4 {
		t.Fatalf("after the fill flipped, Peek(1) = %d, want 4", a)
	}
}

// TestDirectoryConcurrentClaimChurn races two claimant threads (the
// multi-tenant control plane's shape: several tenants resolving endpoints
// through one directory) against a churn thread bumping the epoch with
// Add/Remove, under -race. The invariants: a Claim that resolved is always
// matched by exactly one Done (no panic, no leak), claims never resolve to
// an address outside the membership union, and after the churn settles a
// Remove+Quiesce drains to zero — proving the in-flight accounting balanced
// across every epoch bump.
func TestDirectoryConcurrentClaimChurn(t *testing.T) {
	d := place.New(place.RankAffine(), nil)
	d.Add(10)
	d.Add(11)
	env := realenv.New()
	ctx := env.Ctx()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for claimant := 0; claimant < 2; claimant++ {
		rank := claimant
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok := d.Peek(rank); !ok {
					continue
				}
				addr, ok := d.Claim(rank)
				if !ok {
					continue
				}
				if addr != 10 && addr != 11 && addr != 12 {
					t.Errorf("claim resolved to %d, not a member", addr)
				}
				runtime.Gosched() // hold the claim across other threads' epoch bumps
				d.Done(addr)
			}
		}()
	}
	// Churn: endpoint 12 joins and leaves repeatedly; each departure waits
	// out in-flight claims exactly like a real drain would.
	for i := 0; i < 200; i++ {
		d.Add(12)
		runtime.Gosched()
		d.Remove(12)
		d.Quiesce(ctx, 12)
	}
	close(stop)
	wg.Wait()
	if got := d.Epoch(); got != 2+400 {
		t.Fatalf("epoch %d after 2 adds + 200 churn cycles, want %d", got, 2+400)
	}
	// The surviving members drain cleanly: every claim was matched by a Done.
	for _, addr := range d.Members() {
		d.Remove(addr)
		d.Quiesce(ctx, addr)
	}
	if n := len(d.Members()); n != 0 {
		t.Fatalf("membership %d after full drain, want 0", n)
	}
}
