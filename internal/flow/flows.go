package flow

// The three runtime modules — producer, consumer, stager — keep their
// counts in the flows structs below: every count is a Counter and every
// occupancy a Level, one vocabulary for all three. A module's Stats reads
// them and nothing else of the module's, so Job.Stats() takes no endpoint
// lock while the run is in flight, and the policies that steer — placement,
// the stager's arbiter, the elastic scaler, the control plane — read the
// same totals and occupancies.
//
// A flows struct embeds its gauges by value and therefore must not be
// copied after first use; modules hold it as a field and hand out pointers.

// ProducerFlows counts one producer runtime module's traffic.
type ProducerFlows struct {
	Written  Counter // blocks the application handed to Write
	Sent     Counter // blocks that left directly via the network path
	Relayed  Counter // blocks that left via the in-transit staging relay
	Stolen   Counter // blocks the writer thread routed via the file system
	Messages Counter // mixed messages sent (including the Fin)

	WriteStall Counter // ns Write sat blocked on a full buffer
	SendBusy   Counter // ns the sender thread spent in Send
	StealBusy  Counter // ns the writer thread spent spilling

	WireBytes  Counter // payload bytes put on the wire (encoded size when reduced)
	SavedBytes Counter // payload bytes reduction kept off the wire (raw − encoded)
}

// ConsumerFlows counts one consumer runtime module's traffic. Queue is the
// live consumer-buffer occupancy published into the placement plane: a
// least-occupancy consumer directory steers each producer batch toward the
// analysis endpoint with the most headroom by reading it.
type ConsumerFlows struct {
	Received Counter // blocks that arrived via the network path
	Read     Counter // blocks fetched from the file-system path
	Stored   Counter // blocks persisted by the output thread
	Lost     Counter // blocks an upstream relay declared unrecoverable

	StoreBusy Counter // ns the output thread spent in WriteBlock

	Queue Level // consumer buffer fill in blocks, with capacity and peak
}

// StagerFlows counts one in-transit stager endpoint's traffic. Queue is the
// live in-memory buffer occupancy the routing policies poll.
type StagerFlows struct {
	In           Counter // blocks received from producers
	Forwarded    Counter // blocks delivered to consumers
	Spilled      Counter // blocks that overflowed to the spill store
	SpilledBytes Counter // payload bytes that overflowed to the spill store
	MessagesIn   Counter // mixed messages received
	MessagesOut  Counter // mixed messages forwarded (re-batched)

	SpillBusy Counter // ns spent writing + re-reading spilled blocks

	WireBytes  Counter // payload bytes forwarded on the wire (encoded size when reduced)
	SavedBytes Counter // payload bytes reduction kept off the wire (raw − encoded)

	Queue Level // in-memory buffer fill in blocks, with capacity and peak
}

// PoolSignals is the staging tier seen as one resource: the pool-wide
// aggregate of every live stager's gauges at one instant. It is the
// observation vector the elastic scaler steers on — occupancy and spill
// pressure say the tier is undersized, a near-empty pool says it is
// oversized.
type PoolSignals struct {
	Occupancy float64 // resident blocks / summed buffer capacity, 0 when the pool is empty
	Spilled   int64   // lifetime blocks spilled across the pool
}

// AggregatePool folds the live members' gauges into one PoolSignals.
// Members' gauges are individually thread-safe, so the aggregate is a
// consistent-enough snapshot for control decisions without any global lock.
func AggregatePool(members []*StagerFlows) PoolSignals {
	var ps PoolSignals
	queued, capacity := 0, 0
	for _, m := range members {
		q, c := m.Queue.Get()
		queued += q
		capacity += c
		ps.Spilled += m.Spilled.Total()
	}
	if capacity > 0 {
		ps.Occupancy = float64(queued) / float64(capacity)
	}
	return ps
}
