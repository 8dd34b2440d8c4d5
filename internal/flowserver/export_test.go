package flowserver

import (
	"fmt"
	"sort"

	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// ForceFlow registers a background flow with a fixed bandwidth estimate
// and remaining size, bypassing selection. Tests use it to reconstruct the
// paper's worked examples exactly.
func (s *Server) ForceFlow(links []topology.LinkID, remaining, bw float64) FlowID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := s.nextID
	ls := make([]int, len(links))
	for i, l := range links {
		ls[i] = int(l)
	}
	s.flows[id] = &flowState{
		id:        id,
		links:     ls,
		totalBits: remaining,
		remaining: remaining,
		bw:        bw,
		lastPoll:  s.now(),
	}
	for _, l := range ls {
		s.linkFlows[l] = insertFlow(s.linkFlows[l], s.flows[id])
	}
	return id
}

// FlowFrozen reports the freeze state of a flow, for tests.
func (s *Server) FlowFrozen(id FlowID) (frozen bool, until float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.flows[id]
	if !ok {
		return false, 0
	}
	return f.frozen, f.freezeUntil
}

// FlowRemainingEstimate returns the server's view of a flow's remaining
// bits, for tests.
func (s *Server) FlowRemainingEstimate(id FlowID) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.flows[id]
	if !ok {
		return 0, false
	}
	return f.remaining, true
}

// CheckInvariants verifies the internal model's consistency: every link
// index lists only live flows in strictly ascending id order, every live
// flow appears on each of its links, no estimate is negative, and the id
// counter is ahead of every live flow. Tests call it after random op
// sequences.
func (s *Server) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkInvariantsLocked()
}

// InstallRestoreAudit runs the invariant checker immediately after every
// snapshot rollback (SelectSplit's reject path), panicking on a
// violation since restore has no error return. It returns an uninstall
// func for defer. The hook is package-global: don't use with t.Parallel.
func InstallRestoreAudit() func() {
	restoreHook = func(s *Server) {
		if err := s.checkInvariantsLocked(); err != nil {
			panic(fmt.Sprintf("flowserver: post-restore invariant violation: %v", err))
		}
	}
	return func() { restoreHook = nil }
}

func (s *Server) checkInvariantsLocked() error {
	for link, fs := range s.linkFlows {
		for i, f := range fs {
			if i > 0 && fs[i-1].id >= f.id {
				return fmt.Errorf("link %d index out of order at %d", link, i)
			}
			live, ok := s.flows[f.id]
			if !ok {
				return fmt.Errorf("link %d references dead flow %d", link, f.id)
			}
			if live != f {
				return fmt.Errorf("link %d holds a stale state for flow %d", link, f.id)
			}
			found := false
			for _, l := range f.links {
				if l == link {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("flow %d indexed on link %d it does not traverse", f.id, link)
			}
		}
	}
	for id, f := range s.flows {
		if f.bw < 0 || f.remaining < 0 || f.totalBits < 0 {
			return fmt.Errorf("flow %d has negative state: bw=%g rem=%g total=%g", id, f.bw, f.remaining, f.totalBits)
		}
		if id > s.nextID {
			return fmt.Errorf("flow %d is ahead of the id counter %d", id, s.nextID)
		}
		for _, l := range f.links {
			fs := s.linkFlows[l]
			i := sort.Search(len(fs), func(i int) bool { return fs[i].id >= id })
			if i >= len(fs) || fs[i].id != id {
				return fmt.Errorf("flow %d missing from link %d index", id, l)
			}
		}
	}
	return nil
}
