package elastic

import (
	"testing"
	"time"

	"zipper/internal/place"
	"zipper/internal/rt/realenv"
)

// TestPoolMembershipAndEpoch pins the directory semantics: rank-affine
// resolution over the sorted live membership, and an epoch bump on every
// change.
func TestPoolMembershipAndEpoch(t *testing.T) {
	p := place.New(place.RankAffine(), nil)
	if _, ok := p.Peek(0); ok {
		t.Fatal("empty pool resolved a stager")
	}
	p.Add(5)
	p.Add(3)
	p.Add(3) // duplicate: no-op, no epoch bump
	if e := p.Epoch(); e != 2 {
		t.Fatalf("epoch %d after two distinct Adds, want 2", e)
	}
	if got := p.Members(); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("members %v, want [3 5]", got)
	}
	// Ranks shard over the sorted membership.
	for rank, want := range map[int]int{0: 3, 1: 5, 2: 3, 3: 5} {
		if addr, ok := p.Peek(rank); !ok || addr != want {
			t.Fatalf("Peek(%d) = %d,%v want %d", rank, addr, ok, want)
		}
	}
	p.Remove(3)
	if e := p.Epoch(); e != 3 {
		t.Fatalf("epoch %d after Remove, want 3", e)
	}
	if addr, ok := p.Peek(0); !ok || addr != 5 {
		t.Fatalf("Peek(0) = %d,%v after re-shard, want 5", addr, ok)
	}
	p.Remove(3) // absent: no-op
	if e := p.Epoch(); e != 3 {
		t.Fatalf("epoch %d after no-op Remove, want 3", e)
	}
}

// TestPoolClaimQuiesce pins the drain handshake: Quiesce returns only once
// every claimed send has reported Done, and claims after Remove cannot pick
// the retiring endpoint.
func TestPoolClaimQuiesce(t *testing.T) {
	env := realenv.New()
	p := place.New(place.RankAffine(), nil)
	p.Add(7)
	addr, ok := p.Claim(0)
	if !ok || addr != 7 {
		t.Fatalf("Claim = %d,%v want 7", addr, ok)
	}
	p.Remove(7)
	if _, ok := p.Claim(0); ok {
		t.Fatal("Claim resolved to a retired endpoint")
	}
	released := make(chan struct{})
	quiesced := make(chan struct{})
	go func() {
		p.Quiesce(env.Ctx(), 7)
		close(quiesced)
	}()
	select {
	case <-quiesced:
		t.Fatal("Quiesce returned with a claim still in flight")
	case <-time.After(5 * time.Millisecond):
	}
	close(released)
	p.Done(7)
	select {
	case <-quiesced:
	case <-time.After(time.Second):
		t.Fatal("Quiesce never returned after the last Done")
	}
	<-released
}

// TestDecideHysteresis pins the control law: grow above the occupancy
// target or on spill pressure, drain below the low target with no spills,
// hold inside the band, and never act against the bounds or the cooldown.
func TestDecideHysteresis(t *testing.T) {
	cfg := Config{Enabled: true, MinStagers: 1, MaxStagers: 4}.WithDefaults(4)
	cases := []struct {
		name       string
		occ        float64
		spillDelta int64
		size       int
		cooled     bool
		want       int
	}{
		{"grow on occupancy", 0.8, 0, 2, true, 1},
		{"grow on spill pressure", 0.5, 3, 2, true, 1},
		{"hold inside the band", 0.5, 0, 2, true, 0},
		{"drain when idle", 0.1, 0, 2, true, -1},
		{"no drain with spill pressure", 0.1, 1, 2, true, 1},
		{"grow capped at max", 0.9, 5, 4, true, 0},
		{"drain floored at min", 0.0, 0, 1, true, 0},
		{"cooldown blocks grow", 0.9, 5, 2, false, 0},
		{"cooldown blocks drain", 0.0, 0, 2, false, 0},
	}
	for _, tc := range cases {
		if got := cfg.Decide(tc.occ, tc.spillDelta, tc.size, tc.cooled); got != tc.want {
			t.Errorf("%s: Decide = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestConfigDefaultsAndValidate pins the default resolution and the bound
// checks shared by zipper.Config.validate and the workflow specs.
func TestConfigDefaultsAndValidate(t *testing.T) {
	d := Config{Enabled: true}.WithDefaults(6)
	if d.MinStagers != 1 || d.MaxStagers != 6 {
		t.Fatalf("default bounds %d..%d, want 1..6", d.MinStagers, d.MaxStagers)
	}
	if d.Interval <= 0 || d.Cooldown < d.Interval {
		t.Fatalf("default clocks broken: interval %v cooldown %v", d.Interval, d.Cooldown)
	}
	if err := (Config{}).Validate(0); err != nil {
		t.Fatalf("disabled config must always validate, got %v", err)
	}
	bad := []Config{
		{Enabled: true}, // no ceiling (Validate(0))
		{Enabled: true, MinStagers: 3, MaxStagers: 2},               // min > max
		{Enabled: true, MaxStagers: 9},                              // max > ceiling
		{Enabled: true, MinStagers: -1},                             // negative
		{Enabled: true, Interval: -time.Second},                     // negative clock
		{Enabled: true, MinStagers: 7, MaxStagers: 0 /* default */}, // min > ceiling
	}
	for i, c := range bad {
		ceiling := 4
		if i == 0 {
			ceiling = 0
		}
		if err := c.Validate(ceiling); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, c)
		}
	}
}
