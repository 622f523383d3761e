package flow

// ReduceGate is the "compress instead of spill" rung of the staging tier's
// pressure ladder. The spiller's ladder used to have two rungs: forward
// from memory while occupancy is healthy, spill to the PFS above the
// high-water mark. The gate inserts a middle rung — when occupancy crosses
// the old spill threshold, the stager starts reduction-encoding the blocks
// it forwards, burning CPU to shrink the queue's wire time before burning
// PFS bandwidth; only if pressure keeps building past a raised spill
// threshold does the PFS rung engage.
//
// The gate is hysteretic: it engages at the high-water mark and releases
// only when occupancy falls back to half of it, so a queue hovering at the
// threshold doesn't flap the encoder on and off per block.
//
// Callers drive it under their own module lock; the gate itself holds no
// synchronization.
type ReduceGate struct {
	engageAt  int // occupancy (blocks) at or above which reduction engages
	releaseAt int // occupancy at or below which it disengages

	engaged     bool
	engagements int64
}

// NewReduceGate builds a gate that engages at highWater blocks and releases
// at half that (at least one block lower, so a one-block buffer still
// hysteretes).
func NewReduceGate(highWater int) *ReduceGate {
	if highWater < 1 {
		highWater = 1
	}
	release := highWater / 2
	if release >= highWater {
		release = highWater - 1
	}
	return &ReduceGate{engageAt: highWater, releaseAt: release}
}

// Observe updates the gate with the current queue occupancy and reports
// whether reduction is engaged.
func (g *ReduceGate) Observe(occupancy int) bool {
	if g.engaged {
		if occupancy <= g.releaseAt {
			g.engaged = false
		}
	} else if occupancy >= g.engageAt {
		g.engaged = true
		g.engagements++
	}
	return g.engaged
}

// Engagements counts how many times the gate has switched on — the number
// of pressure bursts reduction absorbed.
func (g *ReduceGate) Engagements() int64 { return g.engagements }
