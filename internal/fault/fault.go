// Package fault configures the survivable data plane: the leases,
// heartbeats and write-ahead journals of a fault-protected staging tier,
// and the timeline its failure detector reports.
//
// Every fault-enabled stager holds a lease in the place.Directory, renewed
// by heartbeats clocked on rt.Ctx virtual time — so the simulated and real
// platforms share one deterministic detector. The detector is a policy of
// the tier's control thread (assembly.Tier): every heartbeat interval it
// sweeps the lease table, and a member whose lease lapsed is evicted from
// the membership (a new epoch — producers re-resolve their claims through
// the placement policy automatically), drained of its in-flight claims,
// fenced (the occupant is killed if it is somehow still moving, so a
// false-positive eviction can never race a live flush into duplicates) and
// joined. The recovery reader then replays what the dead endpoint still
// queued, through its journal — resident blocks from memory, overflowed ones
// from the log in its spool partition, disk refs — and the orphan messages
// its dead receiver absorbed, so the producers' direct Fins, which declare
// their totals, balance without consumers ever learning a relay died.
// Finally a replacement is respawned into the freed slot (up to
// MaxRecoveries per slot) and re-leased.
//
// At shutdown the detector runs one forced sweep over the stagers that
// actually crashed: kills injected so late that their TTL never lapsed are
// still recovered (no respawn — the run is ending), while healthy members
// about to drain are left alone.
package fault

import (
	"errors"
	"fmt"
	"time"
)

// Config tunes the failure detector. The zero value of every field but
// Enabled selects the default noted on the field.
type Config struct {
	// Enabled turns the fault plane on: leases, heartbeats, the failure
	// detector, and write-ahead journaling on every managed stager.
	Enabled bool
	// Heartbeat is the lease renewal period and the detector's sweep
	// interval (default 500µs — virtual time under the simulator).
	Heartbeat time.Duration
	// LeaseTTL is how long a member may go without a heartbeat before it
	// is evicted (default 4×Heartbeat). Must exceed Heartbeat: a TTL inside
	// the renewal period would evict healthy members between beats.
	LeaseTTL time.Duration
}

// MaxRecoveries caps how many replacement endpoints may be respawned into
// one slot; an eviction past it is replayed and the slot stays empty.
const MaxRecoveries = 3

// defaultHeartbeat is Heartbeat's zero-value default.
const defaultHeartbeat = 500 * time.Microsecond

// WithDefaults resolves zero fields.
func (c Config) WithDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = defaultHeartbeat
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 4 * c.Heartbeat
	}
	return c
}

// Validate rejects inconsistent fault timings, before defaults are
// applied. It reports nothing when disabled.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.Heartbeat < 0 || c.LeaseTTL < 0 {
		return errors.New("fault time constants must be ≥ 0 (0 selects the default)")
	}
	if c.LeaseTTL > 0 {
		hb := c.Heartbeat
		if hb == 0 {
			hb = defaultHeartbeat
		}
		if c.LeaseTTL <= hb {
			return fmt.Errorf("fault LeaseTTL (%v) must exceed the heartbeat interval (%v): a lease shorter than its renewal period evicts healthy members", c.LeaseTTL, hb)
		}
	}
	return nil
}

// Event is one entry on the eviction/recovery timeline.
type Event struct {
	At   time.Duration // platform time of the step
	Kind string        // "evict", "replay", "respawn", or "abandon"
	Addr int           // evicted endpoint's transport address
	// Replay outcome ("replay" events): blocks re-forwarded and blocks
	// declared unrecoverable.
	Replayed, Lost int64
}
