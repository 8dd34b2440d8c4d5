package flowserver

import "testing"

// These tests pin the single-clock rule for UpdateFlowStats: freeze
// horizons are stamped from the model clock (Options.Now), so poll
// timestamps from a different clock domain must either be re-stamped
// onto the model clock (small skew) or rejected whole (skew beyond
// MaxPollSkew), never compared raw against the horizons.

func TestUpdateFlowStatsRejectsFutureSkew(t *testing.T) {
	clock := 0.0
	f := newFigure2(t, Options{Now: func() float64 { return clock }})
	id := f.flow6
	bwBefore, _ := f.srv.EstimatedBW(id)
	remBefore, _ := f.srv.FlowRemainingEstimate(id)

	clock = 2
	// Stamped 10 model-seconds ahead (> MaxPollSkew): the whole
	// poll is rejected — remaining must not move either, or a wall-clock
	// poller against an injected-clock server would corrupt progress.
	f.srv.UpdateFlowStats(12, []FlowStat{{ID: id, TransferredBits: 4}})
	if bw, _ := f.srv.EstimatedBW(id); !near(bw, bwBefore) {
		t.Errorf("bw moved on future-skewed poll: %g -> %g", bwBefore, bw)
	}
	if rem, _ := f.srv.FlowRemainingEstimate(id); !near(rem, remBefore) {
		t.Errorf("remaining moved on future-skewed poll: %g -> %g", remBefore, rem)
	}
	if c := f.srv.Counters(); c.PollDropsSkewFuture != 1 {
		t.Errorf("PollDropsSkewFuture = %d, want 1", c.PollDropsSkewFuture)
	}

	// Half a second ahead is within tolerance: the poll is re-stamped to
	// the model time, so the rate uses dt=2, not the caller's 2.5.
	f.srv.UpdateFlowStats(2.5, []FlowStat{{ID: id, TransferredBits: 4}})
	if bw, _ := f.srv.EstimatedBW(id); !near(bw, 2) {
		t.Errorf("bw = %g, want 2 (4 Mb over model dt=2)", bw)
	}
}

func TestUpdateFlowStatsRejectsPastSkew(t *testing.T) {
	clock := 0.0
	f := newFigure2(t, Options{Now: func() float64 { return clock }})
	id := f.flow6

	clock = 10
	// Stamped 8 model-seconds behind: rejected whole.
	bwBefore, _ := f.srv.EstimatedBW(id)
	f.srv.UpdateFlowStats(2, []FlowStat{{ID: id, TransferredBits: 4}})
	if bw, _ := f.srv.EstimatedBW(id); !near(bw, bwBefore) {
		t.Errorf("bw moved on past-skewed poll: %g -> %g", bwBefore, bw)
	}
	if c := f.srv.Counters(); c.PollDropsSkewPast != 1 {
		t.Errorf("PollDropsSkewPast = %d, want 1", c.PollDropsSkewPast)
	}

	// Slightly behind is fine (re-stamped to model time 10).
	f.srv.UpdateFlowStats(9.8, []FlowStat{{ID: id, TransferredBits: 4}})
	if bw, _ := f.srv.EstimatedBW(id); !near(bw, 0.4) {
		t.Errorf("bw = %g, want 0.4 (4 Mb over model dt=10)", bw)
	}
}

// TestFreezeSurvivesSkewedPoll pins the original bug: a poll stamped by a
// wall clock running ahead of the model clock used to expire freezes
// early, because the raw timestamp was compared against horizons set
// from the model clock.
func TestFreezeSurvivesSkewedPoll(t *testing.T) {
	clock := 0.0
	f := newFigure2(t, Options{Now: func() float64 { return clock }})
	id := f.read(t).FlowID
	// Estimate 3 Mb/s over 9 Mb → frozen until t=3.
	if _, until := f.srv.FlowFrozen(id); !near(until, 3) {
		t.Fatalf("freezeUntil = %g, want 3", until)
	}

	// Model time 1, poll stamped 3.5: raw comparison would see the freeze
	// expired; the model clock says it has 2 s to run. The estimate must
	// hold while remaining still tracks the counter.
	clock = 1
	f.srv.UpdateFlowStats(3.5, []FlowStat{{ID: id, TransferredBits: 6}})
	if bw, _ := f.srv.EstimatedBW(id); !near(bw, 3) {
		t.Errorf("frozen bw = %g, want 3 (freeze must survive skewed poll)", bw)
	}
	if rem, _ := f.srv.FlowRemainingEstimate(id); !near(rem, 3) {
		t.Errorf("remaining = %g, want 3", rem)
	}
	c := f.srv.Counters()
	if c.FreezeHits != 1 {
		t.Errorf("FreezeHits = %d, want 1", c.FreezeHits)
	}

	// At model time 3 the freeze has expired regardless of the stamp.
	clock = 3
	f.srv.UpdateFlowStats(3.2, []FlowStat{{ID: id, TransferredBits: 8}})
	if bw, _ := f.srv.EstimatedBW(id); !near(bw, 1) {
		t.Errorf("bw after expiry = %g, want 1 (2 Mb over model dt=2)", bw)
	}
	if c := f.srv.Counters(); c.FreezeExpirations != 1 {
		t.Errorf("FreezeExpirations = %d, want 1", c.FreezeExpirations)
	}
}

func TestUpdateFlowStatsPastPollCounterNoInjectedClock(t *testing.T) {
	// Without an injected clock the poll timestamps are the clock; a poll
	// stamped before the high-water mark is a replay and is rejected whole.
	f := newFigure2(t, Options{})
	f.srv.UpdateFlowStats(5, []FlowStat{{ID: f.flow6, TransferredBits: 1}})
	f.srv.UpdateFlowStats(2, []FlowStat{{ID: f.flow6, TransferredBits: 2}})
	c := f.srv.Counters()
	if c.PollDropsSkewPast != 1 {
		t.Errorf("PollDropsSkewPast = %d, want 1", c.PollDropsSkewPast)
	}
	if rem, _ := f.srv.FlowRemainingEstimate(f.flow6); !near(rem, 5) {
		t.Errorf("remaining = %g, want 5 (replayed poll must not apply)", rem)
	}
}
