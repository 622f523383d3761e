package fault

import (
	"slices"
	"testing"
	"time"

	"zipper/internal/place"
	"zipper/internal/rt"
	"zipper/internal/rt/simenv"
	"zipper/internal/sim"
)

func TestConfigWithDefaults(t *testing.T) {
	c := Config{Enabled: true}.WithDefaults()
	if c.Heartbeat != 500*time.Microsecond {
		t.Fatalf("Heartbeat default = %v", c.Heartbeat)
	}
	if c.LeaseTTL != 4*c.Heartbeat {
		t.Fatalf("LeaseTTL default = %v, want 4x heartbeat", c.LeaseTTL)
	}
	// Explicit values survive.
	c = Config{Enabled: true, Heartbeat: time.Millisecond, LeaseTTL: 9 * time.Millisecond}.WithDefaults()
	if c.Heartbeat != time.Millisecond || c.LeaseTTL != 9*time.Millisecond {
		t.Fatalf("explicit values clobbered: %+v", c)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"disabled is always valid", Config{LeaseTTL: -time.Second}, true},
		{"zero selects defaults", Config{Enabled: true}, true},
		{"explicit sane timings", Config{Enabled: true, Heartbeat: time.Millisecond, LeaseTTL: 5 * time.Millisecond}, true},
		{"negative heartbeat", Config{Enabled: true, Heartbeat: -1}, false},
		{"TTL equal to heartbeat", Config{Enabled: true, Heartbeat: time.Millisecond, LeaseTTL: time.Millisecond}, false},
		{"TTL inside default heartbeat", Config{Enabled: true, LeaseTTL: 100 * time.Microsecond}, false},
	} {
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// neverBeatsHost is a fault.Host whose endpoint, and every replacement of it,
// dies at once: nothing ever beats its lease. Respawn re-admits the address
// to the directory, as the real tier does.
type neverBeatsHost struct {
	dir                *place.Directory
	recovers, respawns int
}

func (h *neverBeatsHost) Dead(rt.Ctx, int) bool { return true }
func (h *neverBeatsHost) Evict(rt.Ctx, int)     {}
func (h *neverBeatsHost) Recover(rt.Ctx, int) (replayed, lost int64) {
	h.recovers++
	return 0, 0
}
func (h *neverBeatsHost) Respawn(_ rt.Ctx, addr int) bool {
	h.respawns++
	h.dir.Add(addr)
	return true
}

// TestRespawnCapRunsOut: a slot whose every occupant dies is respawned three
// times; its fourth eviction is replayed and abandoned, and the address ends
// outside the membership.
func TestRespawnCapRunsOut(t *testing.T) {
	const addr = 5
	eng := sim.New()
	env := simenv.NewEnv(eng, 0, 0)
	cfg := Config{Enabled: true, Heartbeat: time.Millisecond, LeaseTTL: 4 * time.Millisecond}.WithDefaults()
	dir := place.New(place.RankAffine(), nil)
	dir.Add(addr)
	dir.Lease(addr, cfg.LeaseTTL, 0)
	host := &neverBeatsHost{dir: dir}
	m := NewMonitor(env, cfg, dir, host)
	m.Start()
	env.Go("stopper", func(c rt.Ctx) {
		c.Sleep(100 * time.Millisecond)
		m.Stop(c)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	var kinds []string
	for _, ev := range m.Events() {
		if ev.Addr != addr {
			t.Fatalf("event %+v names another address", ev)
		}
		kinds = append(kinds, ev.Kind)
	}
	want := []string{
		"evict", "replay", "respawn",
		"evict", "replay", "respawn",
		"evict", "replay", "respawn",
		"evict", "replay", "abandon",
	}
	if !slices.Equal(kinds, want) {
		t.Fatalf("timeline %v, want %v", kinds, want)
	}
	if host.recovers != 4 || host.respawns != 3 {
		t.Fatalf("host saw %d Recover and %d Respawn calls, want 4 and 3", host.recovers, host.respawns)
	}
	if m.Evictions() != 4 {
		t.Fatalf("Evictions = %d, want 4", m.Evictions())
	}
	if slices.Contains(dir.Members(), addr) {
		t.Fatalf("abandoned address %d still in the membership %v", addr, dir.Members())
	}
}
