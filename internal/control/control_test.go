package control

import (
	"errors"
	"sync"
	"testing"

	"zipper/internal/flow"
	"zipper/internal/rt"
	"zipper/internal/rt/realenv"
)

// fakeHost is a scriptable fleet: per-(addr, tenant) occupancy gauges and
// spill counters the tests drive directly, plus a record of every quota
// push the plane applied.
type fakeHost struct {
	mu      sync.Mutex
	levels  map[[2]int]*flow.Level
	spilled map[[2]int]int64
	quotas  map[[2]int]int
}

func newFakeHost() *fakeHost {
	return &fakeHost{
		levels:  map[[2]int]*flow.Level{},
		spilled: map[[2]int]int64{},
		quotas:  map[[2]int]int{},
	}
}

func (h *fakeHost) TenantLevel(addr, tenant int) *flow.Level {
	h.mu.Lock()
	defer h.mu.Unlock()
	k := [2]int{addr, tenant}
	if h.levels[k] == nil {
		h.levels[k] = &flow.Level{}
	}
	return h.levels[k]
}

func (h *fakeHost) TenantSpilled(addr, tenant int) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.spilled[[2]int{addr, tenant}]
}

func (h *fakeHost) SetTenantQuota(c rt.Ctx, addr, tenant, blocks int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.quotas[[2]int{addr, tenant}] = blocks
}

func (h *fakeHost) quota(addr, tenant int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quotas[[2]int{addr, tenant}]
}

func (h *fakeHost) spill(addr, tenant int, n int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.spilled[[2]int{addr, tenant}] += n
}

func TestAdmissionValidation(t *testing.T) {
	env := realenv.New()
	ctx := env.Ctx()
	p := NewPlane(Config{MaxTenants: 2}, []int{10, 11}, 8, newFakeHost())
	bad := []struct {
		name  string
		quota Quota
		field string
	}{
		{"priority", Quota{Priority: Priority(7)}, "Quota.Priority"},
		{"negative guarantee", Quota{BufferBlocks: -1}, "Quota.BufferBlocks"},
		{"oversubscribed", Quota{BufferBlocks: 17}, "Quota.BufferBlocks"},
	}
	for _, tc := range bad {
		_, err := p.Admit(ctx, JobSpec{Name: tc.name, Quota: tc.quota})
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: got %v, want *ConfigError", tc.name, err)
		}
		if ce.Field != tc.field {
			t.Fatalf("%s: field %q, want %q", tc.name, ce.Field, tc.field)
		}
	}
	// Aggregate guarantees are checked against active tenants only.
	a, err := p.Admit(ctx, JobSpec{Name: "a", Quota: Quota{BufferBlocks: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit(ctx, JobSpec{Name: "b", Quota: Quota{BufferBlocks: 8}}); err == nil {
		t.Fatal("second guarantee oversubscribed the fleet but was admitted")
	}
	p.Finish(ctx, a)
	if _, err := p.Admit(ctx, JobSpec{Name: "b", Quota: Quota{BufferBlocks: 8}}); err != nil {
		t.Fatalf("admission after finish: %v", err)
	}
	// MaxTenants is a lifetime cap: a finished tenant's id is not reusable.
	if _, err := p.Admit(ctx, JobSpec{Name: "c"}); err == nil {
		t.Fatal("admission beyond MaxTenants succeeded")
	}
}

func TestWeightedFairShare(t *testing.T) {
	env := realenv.New()
	ctx := env.Ctx()
	host := newFakeHost()
	fleet := []int{10, 11, 12, 13}
	p := NewPlane(Config{}, fleet, 16, host)

	a, err := p.Admit(ctx, JobSpec{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Admit(ctx, JobSpec{Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	// 4 stagers split evenly → a holds 2, b holds 2, disjointly (each tenant
	// alone on its stagers gets the full buffer).
	sa, sb := a.Directory().Members(), b.Directory().Members()
	if len(sa) != 2 || len(sb) != 2 {
		t.Fatalf("slices %v / %v, want sizes 2 / 2", sa, sb)
	}
	seen := map[int]bool{}
	for _, addr := range append(append([]int(nil), sa...), sb...) {
		if seen[addr] {
			t.Fatalf("stager %d assigned to both tenants with capacity to spare", addr)
		}
		seen[addr] = true
	}
	if q := host.quota(sa[0], a.ID()); q != 16 {
		t.Fatalf("sole tenant's quota %d, want the full buffer", q)
	}
	// Finish b: a's slice grows to the whole fleet on the same call.
	p.Finish(ctx, b)
	if got := a.Directory().Members(); len(got) != 4 {
		t.Fatalf("survivor's slice %v, want all 4 stagers", got)
	}
	if len(b.Directory().Members()) != 0 {
		t.Fatal("finished tenant's directory still has members")
	}
	var kinds []string
	for _, e := range p.Events() {
		kinds = append(kinds, e.Kind)
	}
	want := []string{"admit", "assign", "admit", "assign", "assign", "finish", "assign"}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event kinds %v, want %v", kinds, want)
		}
	}
}

func TestGuaranteeFloorAndOverlap(t *testing.T) {
	env := realenv.New()
	ctx := env.Ctx()
	host := newFakeHost()
	p := NewPlane(Config{}, []int{10, 11}, 16, host)
	// Three tenants on two stagers: slices must overlap (everyone keeps ≥ 1
	// stager) and the guaranteed tenant's per-stager cap is floored at
	// ⌈guarantee/slice⌉ even where it shares the stager.
	g, err := p.Admit(ctx, JobSpec{Name: "g", Quota: Quota{BufferBlocks: 12}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit(ctx, JobSpec{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit(ctx, JobSpec{Name: "y"}); err != nil {
		t.Fatal(err)
	}
	gs := g.Directory().Members()
	if len(gs) == 0 {
		t.Fatal("guaranteed tenant lost its whole slice")
	}
	floor := (12 + len(gs) - 1) / len(gs)
	for _, addr := range gs {
		if q := host.quota(addr, g.ID()); q < floor {
			t.Fatalf("stager %d quota %d below guarantee floor %d", addr, q, floor)
		}
	}
	for _, sn := range p.Snapshot() {
		if len(sn.Stagers) < 1 {
			t.Fatalf("tenant %d has no stager: %+v", sn.ID, sn)
		}
	}
}

func TestPreemptionAndDecay(t *testing.T) {
	env := realenv.New()
	ctx := env.Ctx()
	host := newFakeHost()
	fleet := []int{10, 11, 12}
	p := NewPlane(Config{}, fleet, 16, host)
	hi, err := p.Admit(ctx, JobSpec{Name: "hi", Quota: Quota{Priority: PriorityHigh}})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := p.Admit(ctx, JobSpec{Name: "lo", Quota: Quota{Priority: PriorityLow}})
	if err != nil {
		t.Fatal(err)
	}
	reconcile := func() { p.reconcile(ctx) } // forces a synchronous pass

	// Script the gauges: the high-priority tenant is pressed against its
	// quota on its first stager while the low-priority tenant spills.
	press := func(on bool) {
		addr := hi.Directory().Members()[0]
		lv := host.TenantLevel(addr, hi.ID())
		_, capacity := lv.Get()
		if capacity == 0 {
			capacity = 16
			lv.SetCapacity(capacity)
		}
		if on {
			lv.Set(capacity)
		} else {
			lv.Set(0)
		}
	}
	press(true)
	host.spill(fleet[0], lo.ID(), 5)
	reconcile() // baseline pass records the spill delta and the pressure
	host.spill(fleet[0], lo.ID(), 5)
	reconcile()
	if p.Preemptions() == 0 {
		t.Fatal("pressured high-priority tenant never preempted the spilling low-priority one")
	}
	var ev Event
	for _, e := range p.Events() {
		if e.Kind == "preempt" {
			ev = e
		}
	}
	if ev.Tenant != hi.ID() || ev.Victim != lo.ID() {
		t.Fatalf("preempt event %+v, want claimant %d victim %d", ev, hi.ID(), lo.ID())
	}
	for _, sn := range p.Snapshot() {
		if sn.ID == lo.ID() && sn.Preempted == 0 {
			t.Fatalf("victim snapshot lost the preemption count: %+v", sn)
		}
	}
	if lo.weight() >= 1 {
		t.Fatalf("victim weight %v after preemption, want < 1", lo.weight())
	}
	// Equal or higher classes are never victims: press again with only the
	// high tenant spilling — no further preemption.
	n := p.Preemptions()
	host.spill(fleet[0], hi.ID(), 5)
	reconcile()
	if p.Preemptions() != n {
		t.Fatal("a tenant preempted an equal-or-higher class")
	}
	// Release the pressure: penalties decay and the victim's weight returns.
	press(false)
	for i := 0; i < maxPenalty+1; i++ {
		reconcile()
	}
	if lo.weight() != 1 {
		t.Fatalf("victim weight %v after decay, want 1", lo.weight())
	}
}

func TestPlaneStartStop(t *testing.T) {
	env := realenv.New()
	ctx := env.Ctx()
	p := NewPlane(Config{}, []int{10}, 8, newFakeHost())
	p.Start(env)
	if _, err := p.Admit(ctx, JobSpec{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	p.Stop(ctx)
	// Stop on a never-started plane returns immediately.
	q := NewPlane(Config{}, []int{10}, 8, newFakeHost())
	q.Stop(ctx)
}
