package flowserver

// StatsSource supplies one stats-poll cycle's worth of per-flow byte
// counters. It is the seam between the Flowserver's model maintenance
// and wherever the counters actually come from: the experiment driver
// reads them straight off the network fabric, the testbed reads them
// off its SDN switch agents — UpdateFlowStats cannot tell the
// difference, which is the point.
type StatsSource interface {
	// FlowStats returns the current cumulative byte counter of every
	// flow the source knows about. Order is not significant; the slice
	// is owned by the caller once returned.
	FlowStats() []FlowStat
}
