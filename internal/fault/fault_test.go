package fault

import (
	"testing"
	"time"
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
