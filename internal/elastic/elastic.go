// Package elastic is the autoscaler policy of the Zipper staging tier: it
// decides when the tier grows or drains its in-transit stager endpoints at
// runtime, so the tier tracks the workload instead of being provisioned for
// its peak.
//
// The policy runs on the tier's one control thread (assembly.Tier), which
// owns every slot and carries the decision out:
//
//   - The pool is an epoch-versioned stager directory (a place.Directory), so
//     the assignment rule is pluggable: rank-affine by default, or any
//     place.Policy (least-occupancy) the embedder configures. Producers
//     resolve their stager from the live membership per drained batch, so
//     membership changes compose with every flow.Router unchanged. The
//     directory also counts claimed-but-undelivered relay sends per
//     endpoint, which is what makes retirement race-free: Quiesce waits for
//     the last straggler to deposit before the Retire control message is
//     sent, so Retire is the final message a draining endpoint receives on
//     any wire whose Retire is fenced behind the sends before it — the
//     in-process channel network, the simulated network, and a TCP job's
//     control port, which fences every producer connection first.
//
//   - The drain protocol (implemented by staging.Stager): a
//     draining stager stops admitting on Retire, flushes its in-memory queue
//     and its spill partition to the consumers, and exits. Stream
//     termination stays correct under any membership history because Fins
//     carry declared delivery totals (rt.Message.FinBlocks/FinDisk) and the
//     consumer holds its stream open until the counts are met.
//
//   - Decide, the verdict. Every Interval the tier observes the pool-wide
//     flow gauges (occupancy and spill growth — flow.PoolSignals) and asks
//     Decide, a hysteresis band plus a cooldown, whether to spawn or retire
//     one endpoint, up to the reserved endpoint ceiling. Everything is
//     clocked by rt.Ctx time, so the identical policy runs deterministically
//     inside the discrete-event simulator and live on the real machine.
package elastic

import (
	"errors"
	"fmt"
	"time"
)

// Config tunes the elastic staging tier. The zero value of every field but
// Enabled selects the default noted on the field.
type Config struct {
	// Enabled turns the autoscaler on. Off, the staging tier is the fixed
	// pool of earlier revisions, byte-identical in behavior.
	Enabled bool
	// MinStagers is the floor the pool drains down to and the size it starts
	// at (default 1). MaxStagers is the growth ceiling (default: the number
	// of reserved stager endpoints).
	MinStagers, MaxStagers int
	// Interval is the control period (default 2ms — virtual time under the
	// simulator). Cooldown is the minimum time between scaling actions
	// (default 10×Interval); together with the hysteresis band it keeps the
	// pool from thrashing on transients.
	Interval, Cooldown time.Duration
}

// WithDefaults resolves zero fields against the reserved endpoint ceiling.
func (c Config) WithDefaults(ceiling int) Config {
	if c.MinStagers <= 0 {
		c.MinStagers = 1
	}
	if c.MaxStagers <= 0 || c.MaxStagers > ceiling {
		c.MaxStagers = ceiling
	}
	if c.MinStagers > c.MaxStagers {
		c.MinStagers = c.MaxStagers
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Millisecond
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * c.Interval
	}
	return c
}

// Validate rejects inconsistent elastic bounds against the reserved stager
// ceiling, before defaults are applied. It reports nothing when disabled.
func (c Config) Validate(ceiling int) error {
	if !c.Enabled {
		return nil
	}
	if ceiling < 1 {
		return errors.New("elastic staging needs Stagers ≥ 1 reserved endpoints")
	}
	if c.MinStagers < 0 || c.MaxStagers < 0 {
		return fmt.Errorf("elastic stager bounds must be ≥ 0 (0 selects the default), got min %d max %d",
			c.MinStagers, c.MaxStagers)
	}
	if c.MaxStagers > 0 && c.MinStagers > c.MaxStagers {
		return fmt.Errorf("elastic MinStagers (%d) exceeds MaxStagers (%d)", c.MinStagers, c.MaxStagers)
	}
	if c.MaxStagers > ceiling {
		return fmt.Errorf("elastic MaxStagers (%d) exceeds the reserved Stagers ceiling (%d)",
			c.MaxStagers, ceiling)
	}
	if c.MinStagers > ceiling {
		return fmt.Errorf("elastic MinStagers (%d) exceeds the reserved Stagers ceiling (%d)",
			c.MinStagers, ceiling)
	}
	if c.Interval < 0 || c.Cooldown < 0 {
		return errors.New("elastic time constants must be ≥ 0 (0 selects the default)")
	}
	return nil
}

// The hysteresis band on pool-wide buffer occupancy (fractions of summed
// capacity): at or above growOccupancy — or whenever the tier spilled to disk
// since the last tick — the pool grows; at or below drainOccupancy with no
// spill pressure it drains. Between them the pool holds.
const (
	growOccupancy  = 0.75
	drainOccupancy = 0.20
)

// Decide is the autoscaler's per-tick verdict, exposed as a pure function so
// the hysteresis band is unit-testable without a platform: +1 grow, -1
// drain, 0 hold. occ is the pool-wide occupancy fraction, spillDelta the blocks the
// tier spilled since the last tick, size the live pool size, and cooled
// whether the cooldown since the last action has elapsed. The receiver must
// have defaults resolved (WithDefaults).
func (c Config) Decide(occ float64, spillDelta int64, size int, cooled bool) int {
	if !cooled {
		return 0
	}
	if (occ >= growOccupancy || spillDelta > 0) && size < c.MaxStagers {
		return 1
	}
	if occ <= drainOccupancy && spillDelta == 0 && size > c.MinStagers {
		return -1
	}
	return 0
}

// Event is one scaling action on the pool, for the Job.Stats timeline and
// the zippertrace pool-size view. The fault plane contributes "crash"
// (eviction took the slot's endpoint) and "respawn" (a replacement is
// live) events with zero Occupancy — they are recoveries, not occupancy
// decisions.
type Event struct {
	At        time.Duration // platform time of the action
	Action    string        // "grow", "drain", "crash", or "respawn"
	Slot      int           // reserved endpoint slot acted on
	PoolSize  int           // live pool size after the action
	Occupancy float64       // pool-wide occupancy that triggered it
}
