package flow

// The three runtime modules — producer, consumer, stager — used to keep
// three parallel structs of plain int64/time.Duration counters, each guarded
// by its module lock and readable only as terminal totals. The flows structs
// below replace them with one shared gauge vocabulary: every counter is a
// Meter (total + live EWMA rate) and every occupancy is a Level, so
// Job.Stats() can report delivered throughput and stall fractions while the
// run is still in flight, and the adaptive router can read the same gauges
// it steers.
//
// A flows struct embeds Meters by value and therefore must not be copied
// after first use; modules hold it as a field and hand out pointers.

// ProducerFlows gauges one producer runtime module.
type ProducerFlows struct {
	Written  Meter // blocks the application handed to Write
	Sent     Meter // blocks that left directly via the network path
	Relayed  Meter // blocks that left via the in-transit staging relay
	Stolen   Meter // blocks the writer thread routed via the file system
	Messages Meter // mixed messages sent (including the Fin)

	WriteStall Meter // ns Write sat blocked on a full buffer
	SendBusy   Meter // ns the sender thread spent in Send
	StealBusy  Meter // ns the writer thread spent spilling

	WireBytes  Meter // payload bytes put on the wire (encoded size when reduced)
	SavedBytes Meter // payload bytes reduction kept off the wire (raw − encoded)
}

// ConsumerFlows gauges one consumer runtime module. Queue is the live
// consumer-buffer occupancy published into the placement plane: a
// least-occupancy consumer directory steers each producer batch toward the
// analysis endpoint with the most headroom by reading it.
type ConsumerFlows struct {
	Received Meter // blocks that arrived via the network path
	Read     Meter // blocks fetched from the file-system path
	Analyzed Meter // blocks handed to the analysis application
	Stored   Meter // blocks persisted by the output thread

	ReadStall Meter // ns Read sat blocked waiting for data
	RecvBusy  Meter // ns the receiver thread spent in Recv
	DiskBusy  Meter // ns the reader thread spent in ReadBlock
	StoreBusy Meter // ns the output thread spent in WriteBlock

	Queue Level // consumer buffer fill in blocks, with capacity and peak
}

// StagerFlows gauges one in-transit stager endpoint. Queue is the live
// in-memory buffer occupancy the routing policies poll — the gauge that
// replaced the ad-hoc occupancy probe func.
type StagerFlows struct {
	In           Meter // blocks received from producers
	Forwarded    Meter // blocks delivered to consumers
	Spilled      Meter // blocks that overflowed to the spill store
	SpilledBytes Meter // payload bytes that overflowed to the spill store
	DiskRefs     Meter // producer disk-ref announcements relayed
	MessagesIn   Meter // mixed messages received
	MessagesOut  Meter // mixed messages forwarded (re-batched)

	RecvBusy    Meter // ns the receiver thread spent in Recv
	ForwardBusy Meter // ns the forwarder thread spent in Send
	SpillBusy   Meter // ns spent writing + re-reading spilled blocks

	WireBytes  Meter // payload bytes forwarded on the wire (encoded size when reduced)
	SavedBytes Meter // payload bytes reduction kept off the wire (raw − encoded)

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
