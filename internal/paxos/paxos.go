// Package paxos implements multi-decree Paxos state machine replication.
// The Mayflower paper runs a single centralized nameserver and notes
// (§3.3.1) that "we can improve the fault-tolerance of the nameserver by
// using a state machine replication algorithm, such as Paxos, to
// replicate the nameserver to multiple nodes" — this package provides
// that algorithm, and internal/nameserver builds the replicated
// nameserver on top of it.
//
// The design is classic Paxos, one instance per log slot:
//
//   - Ballots are (round, proposer id) pairs, totally ordered.
//   - Phase 1 (Prepare/Promise) and phase 2 (Accept/Accepted) run against
//     a quorum of acceptors; a proposer that learns of an already
//     accepted value for a slot adopts it, which is what guarantees that
//     a slot never commits two different values.
//   - A proposer whose own command lost the slot retries the command on
//     the next free slot, so every submitted command eventually commits
//     exactly once (per submission) as long as a majority is reachable.
//   - Chosen values are broadcast with Learn messages; each node applies
//     committed entries to its state machine strictly in slot order.
//
// Transport is pluggable; the wire-RPC transport used by the replicated
// nameserver lives in transport.go.
package paxos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Ballot orders competing proposals. Zero is "no ballot".
type Ballot struct {
	Round int64 `json:"round"`
	Node  int64 `json:"node"`
}

// Less reports whether b orders before o.
func (b Ballot) Less(o Ballot) bool {
	if b.Round != o.Round {
		return b.Round < o.Round
	}
	return b.Node < o.Node
}

// IsZero reports whether the ballot is unset.
func (b Ballot) IsZero() bool { return b == Ballot{} }

// PrepareArgs is a phase-1a message.
type PrepareArgs struct {
	Slot   int64  `json:"slot"`
	Ballot Ballot `json:"ballot"`
}

// PrepareReply is a phase-1b message.
type PrepareReply struct {
	// Promised is true when the acceptor promised the ballot.
	Promised bool `json:"promised"`
	// AcceptedBallot/AcceptedValue report any previously accepted
	// proposal for the slot.
	AcceptedBallot Ballot `json:"acceptedBallot"`
	AcceptedValue  []byte `json:"acceptedValue,omitempty"`
}

// AcceptArgs is a phase-2a message.
type AcceptArgs struct {
	Slot   int64  `json:"slot"`
	Ballot Ballot `json:"ballot"`
	Value  []byte `json:"value"`
}

// AcceptReply is a phase-2b message.
type AcceptReply struct {
	Accepted bool `json:"accepted"`
}

// LearnArgs announces a chosen value.
type LearnArgs struct {
	Slot  int64  `json:"slot"`
	Value []byte `json:"value"`
}

// Transport sends Paxos messages to one peer.
type Transport interface {
	Prepare(ctx context.Context, args PrepareArgs) (PrepareReply, error)
	Accept(ctx context.Context, args AcceptArgs) (AcceptReply, error)
	Learn(ctx context.Context, args LearnArgs) error
}

// ErrNoQuorum is returned when a majority of acceptors is unreachable.
var ErrNoQuorum = errors.New("paxos: no quorum")

// acceptorSlot is one slot's durable acceptor state.
type acceptorSlot struct {
	promised Ballot
	accepted Ballot
	value    []byte
}

// Node is one Paxos participant: acceptor, proposer and learner.
type Node struct {
	id    int64
	peers map[int64]Transport // excludes self
	apply func(slot int64, value []byte)

	// applyMu serialises appliers: taken before mu and held across the
	// apply calls, which are never made under mu. Without it two
	// concurrent learns each release mu with a batch in hand and may
	// apply them in either order.
	applyMu sync.Mutex

	mu        sync.Mutex
	slots     map[int64]*acceptorSlot
	chosen    map[int64][]byte
	nextApply int64
	maxSeen   int64 // highest slot seen in any message
	round     int64 // local ballot round, monotone
	closed    bool
}

// Config configures a Node.
type Config struct {
	// ID is this node's unique identity (>= 0).
	ID int64
	// Peers maps every *other* node's id to a transport for it.
	Peers map[int64]Transport
	// Apply is invoked exactly once per slot, in slot order, with each
	// committed value.
	Apply func(slot int64, value []byte)
}

// NewNode creates a Paxos node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.ID < 0 {
		return nil, fmt.Errorf("paxos: negative node id %d", cfg.ID)
	}
	if cfg.Apply == nil {
		return nil, errors.New("paxos: Apply is required")
	}
	for id := range cfg.Peers {
		if id == cfg.ID {
			return nil, fmt.Errorf("paxos: peers must not contain self (%d)", id)
		}
	}
	return &Node{
		id:     cfg.ID,
		peers:  cfg.Peers,
		apply:  cfg.Apply,
		slots:  make(map[int64]*acceptorSlot),
		chosen: make(map[int64][]byte),
	}, nil
}

// ID returns the node's identity.
func (n *Node) ID() int64 { return n.id }

// clusterSize counts this node plus its peers.
func (n *Node) clusterSize() int { return len(n.peers) + 1 }

// quorum returns the majority size.
func (n *Node) quorum() int { return n.clusterSize()/2 + 1 }

// --- acceptor ------------------------------------------------------------

func (n *Node) slot(s int64) *acceptorSlot {
	sl, ok := n.slots[s]
	if !ok {
		sl = &acceptorSlot{}
		n.slots[s] = sl
	}
	if s > n.maxSeen {
		n.maxSeen = s
	}
	return sl
}

// HandlePrepare processes a phase-1a message (the acceptor role).
func (n *Node) HandlePrepare(args PrepareArgs) PrepareReply {
	n.mu.Lock()
	defer n.mu.Unlock()
	sl := n.slot(args.Slot)
	if sl.promised.Less(args.Ballot) || sl.promised == args.Ballot {
		sl.promised = args.Ballot
		return PrepareReply{
			Promised:       true,
			AcceptedBallot: sl.accepted,
			AcceptedValue:  sl.value,
		}
	}
	return PrepareReply{Promised: false}
}

// HandleAccept processes a phase-2a message (the acceptor role).
func (n *Node) HandleAccept(args AcceptArgs) AcceptReply {
	n.mu.Lock()
	defer n.mu.Unlock()
	sl := n.slot(args.Slot)
	if sl.promised.Less(args.Ballot) || sl.promised == args.Ballot {
		sl.promised = args.Ballot
		sl.accepted = args.Ballot
		sl.value = args.Value
		return AcceptReply{Accepted: true}
	}
	return AcceptReply{Accepted: false}
}

// HandleLearn records a chosen value (the learner role) and applies any
// newly contiguous prefix of the log.
func (n *Node) HandleLearn(args LearnArgs) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.chosen[args.Slot]; dup {
		return
	}
	n.chosen[args.Slot] = args.Value
	if args.Slot > n.maxSeen {
		n.maxSeen = args.Slot
	}
	for {
		v, ok := n.chosen[n.nextApply]
		if !ok {
			return
		}
		slot := n.nextApply // moved only by the applyMu holder
		n.mu.Unlock()
		n.apply(slot, v)
		n.mu.Lock()
		n.nextApply++
	}
}

// Chosen reports the committed value for a slot, if known.
func (n *Node) Chosen(slot int64) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.chosen[slot]
	return v, ok
}

// Applied returns the number of contiguous log entries applied so far.
func (n *Node) Applied() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nextApply
}

// --- proposer ------------------------------------------------------------

// Propose submits a command to the replicated log. It returns the slot
// the command committed at. If competing proposers win intermediate
// slots, those slots commit the competitors' values and the command moves
// to the next free slot; Propose only returns once the submitted value
// itself is chosen.
func (n *Node) Propose(ctx context.Context, value []byte) (int64, error) {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		slot := n.nextFreeSlot()
		chosenValue, err := n.runSlot(ctx, slot, value)
		if err != nil {
			// Back off briefly on quorum loss or ballot races before
			// retrying; the jitter comes from the node id.
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(time.Duration(1+attempt%5) * 5 * time.Millisecond):
			}
			continue
		}
		if string(chosenValue) == string(value) {
			return slot, nil
		}
		// The slot went to a competitor; try the next one.
	}
}

// nextFreeSlot picks the lowest slot this node has not seen decided.
func (n *Node) nextFreeSlot() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.nextApply
	for {
		if _, done := n.chosen[s]; !done {
			if sl, ok := n.slots[s]; !ok || sl.accepted.IsZero() {
				return s
			}
		}
		s++
	}
}

func (n *Node) newBallot() Ballot {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.round++
	return Ballot{Round: n.round, Node: n.id}
}

// bumpRound raises the local round past a ballot that beat us.
func (n *Node) bumpRound(b Ballot) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if b.Round > n.round {
		n.round = b.Round
	}
}

// CatchUp drives every undecided slot up to the highest slot this node
// has seen to a decision, proposing no-ops (empty values) for slots with
// no accepted value. It lets a replica that missed Learn messages close
// the gaps in its log so later entries can apply.
func (n *Node) CatchUp(ctx context.Context) error {
	for attempt := 0; ; {
		n.mu.Lock()
		var target int64 = -1
		for s := n.nextApply; s <= n.maxSeen; s++ {
			if _, done := n.chosen[s]; !done {
				target = s
				break
			}
		}
		n.mu.Unlock()
		if target < 0 {
			return nil
		}
		if _, err := n.runSlot(ctx, target, nil); err != nil {
			// Ballot races against live proposers are routine for a
			// recovering replica — back off and retry with the bumped
			// round, like Propose, until the context expires.
			attempt++
			select {
			case <-ctx.Done():
				return fmt.Errorf("paxos: catch up slot %d: %w", target, err)
			case <-time.After(time.Duration(1+attempt%5) * 5 * time.Millisecond):
			}
		}
	}
}

// runSlot runs both Paxos phases for one slot and returns the value that
// was chosen there (which may differ from the proposed value).
func (n *Node) runSlot(ctx context.Context, slot int64, value []byte) ([]byte, error) {
	ballot := n.newBallot()

	// Phase 1: prepare against all acceptors (self included).
	type prep struct {
		reply PrepareReply
		err   error
	}
	replies := make(chan prep, n.clusterSize())
	replies <- prep{reply: n.HandlePrepare(PrepareArgs{Slot: slot, Ballot: ballot})}
	for _, t := range n.peers {
		t := t
		go func() {
			r, err := t.Prepare(ctx, PrepareArgs{Slot: slot, Ballot: ballot})
			replies <- prep{reply: r, err: err}
		}()
	}
	promises := 0
	var adopted []byte
	var adoptedBallot Ballot
	for i := 0; i < n.clusterSize(); i++ {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case p := <-replies:
			if p.err != nil || !p.reply.Promised {
				continue
			}
			promises++
			if !p.reply.AcceptedBallot.IsZero() && adoptedBallot.Less(p.reply.AcceptedBallot) {
				adoptedBallot = p.reply.AcceptedBallot
				adopted = p.reply.AcceptedValue
			}
		}
		if promises >= n.quorum() {
			break
		}
	}
	if promises < n.quorum() {
		n.bumpRound(Ballot{Round: ballot.Round + 1})
		return nil, fmt.Errorf("%w: %d/%d promises for slot %d", ErrNoQuorum, promises, n.clusterSize(), slot)
	}
	proposal := value
	if adopted != nil {
		proposal = adopted // safety: an accepted value must be completed
	}

	// Phase 2: accept.
	type acc struct {
		reply AcceptReply
		err   error
	}
	acks := make(chan acc, n.clusterSize())
	acks <- acc{reply: n.HandleAccept(AcceptArgs{Slot: slot, Ballot: ballot, Value: proposal})}
	for _, t := range n.peers {
		t := t
		go func() {
			r, err := t.Accept(ctx, AcceptArgs{Slot: slot, Ballot: ballot, Value: proposal})
			acks <- acc{reply: r, err: err}
		}()
	}
	accepts := 0
	for i := 0; i < n.clusterSize(); i++ {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case a := <-acks:
			if a.err == nil && a.reply.Accepted {
				accepts++
			}
		}
		if accepts >= n.quorum() {
			break
		}
	}
	if accepts < n.quorum() {
		n.bumpRound(Ballot{Round: ballot.Round + 1})
		return nil, fmt.Errorf("%w: %d/%d accepts for slot %d", ErrNoQuorum, accepts, n.clusterSize(), slot)
	}

	// Chosen: teach everyone (self first, synchronously, so the caller
	// observes its own state machine advance).
	n.HandleLearn(LearnArgs{Slot: slot, Value: proposal})
	for _, t := range n.peers {
		t := t
		go func() {
			lctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = t.Learn(lctx, LearnArgs{Slot: slot, Value: proposal})
		}()
	}
	return proposal, nil
}
