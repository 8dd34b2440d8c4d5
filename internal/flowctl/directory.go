package flowctl

import (
	"fmt"
	"math"
	"sync"
)

// Directory is the pod→shard ownership map with epoch-numbered leases.
// It is the single authority clients, dataservers and shards resolve
// routing against: Lookup answers "which shard owns this pod right now,
// and under which epoch". Every ownership change — a shard declared
// dead and its pods promoted — bumps the epoch exactly once, so a
// cached route is valid if and only if its epoch still matches.
//
// Liveness is lease-based: shards register and renew with Heartbeat,
// and ExpireBefore declares shards whose lease lapsed dead (the
// repair.Monitor pattern: death is declared once, by the party that
// owns the clock). Tests and the in-process plane can also declare
// death explicitly with MarkDead. A dead shard's pods all promote to
// one successor — the next live shard scanning upward — keeping the
// reassignment deterministic and the move count minimal.
//
// The deployed form serves this state over RPC (see rpc.go) from the
// shard-0 process, beside that shard's selection surface; replicating
// the directory itself via paxos is future work recorded in DESIGN.md
// §15 — its state is a few dozen bytes and rebuilds from shard
// heartbeats, so a restart loses only routing freshness, never
// correctness.
type Directory struct {
	mu     sync.Mutex
	owner  []int // pod → shard
	alive  []bool
	addr   []string  // shard → registered RPC address ("" in-process)
	expiry []float64 // shard → lease expiry; +Inf until first Heartbeat
	epoch  int64
}

// NewDirectory creates a directory for pods pods round-robin assigned
// to shards shards, all initially live with unexpiring leases (the
// in-process plane never heartbeats).
func NewDirectory(pods, shards int) (*Directory, error) {
	if shards < 1 {
		return nil, fmt.Errorf("flowctl: need at least 1 shard, got %d", shards)
	}
	if pods < shards {
		return nil, fmt.Errorf("flowctl: %d shards for %d pods; at most one shard per pod", shards, pods)
	}
	d := &Directory{
		owner:  initialOwners(pods, shards),
		alive:  make([]bool, shards),
		addr:   make([]string, shards),
		expiry: make([]float64, shards),
		epoch:  1,
	}
	for s := range d.alive {
		d.alive[s] = true
		d.expiry[s] = math.Inf(1)
	}
	return d, nil
}

// Epoch returns the current lease epoch.
func (d *Directory) Epoch() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch
}

// Lookup resolves the shard owning a pod. ok is false for an unknown
// pod or when the owning shard (and every possible successor) is dead.
func (d *Directory) Lookup(pod int) (shard int, addr string, epoch int64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if pod < 0 || pod >= len(d.owner) {
		return 0, "", d.epoch, false
	}
	s := d.owner[pod]
	if !d.alive[s] {
		return 0, "", d.epoch, false
	}
	return s, d.addr[s], d.epoch, true
}

// Owners returns a copy of the pod→shard map and the epoch it is valid
// under.
func (d *Directory) Owners() ([]int, int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int(nil), d.owner...), d.epoch
}

// Alive reports whether a shard currently holds a live lease.
func (d *Directory) Alive(shard int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return shard >= 0 && shard < len(d.alive) && d.alive[shard]
}

// Heartbeat registers or renews shard's lease until now+ttl, recording
// the address it serves on. Renewing is cheap and does not touch the
// epoch. A heartbeat from a shard previously declared dead revives its
// lease but does NOT reclaim its promoted pods — ownership only ever
// changes through death, keeping epochs monotone and rebalancing a
// deliberate operation rather than a flap side effect.
func (d *Directory) Heartbeat(shard int, addr string, now, ttl float64) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if shard < 0 || shard >= len(d.alive) {
		return d.epoch, fmt.Errorf("flowctl: heartbeat from unknown shard %d", shard)
	}
	d.alive[shard] = true
	d.addr[shard] = addr
	d.expiry[shard] = now + ttl
	return d.epoch, nil
}

// ExpireBefore declares every shard whose lease expired before now
// dead, promoting its pods. It returns true when any ownership changed.
func (d *Directory) ExpireBefore(now float64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	changed := false
	for s := range d.alive {
		if d.alive[s] && d.expiry[s] < now {
			if d.markDeadLocked(s) {
				changed = true
			}
		}
	}
	return changed
}

// MarkDead declares a shard dead and promotes its pods to the next live
// shard (scanning upward, wrapping). The epoch is bumped once when any
// pod moved. It returns the post-call epoch and whether ownership
// changed; declaring an already-dead shard dead again changes nothing.
func (d *Directory) MarkDead(shard int) (int64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if shard < 0 || shard >= len(d.alive) || !d.alive[shard] {
		return d.epoch, false
	}
	changed := d.markDeadLocked(shard)
	return d.epoch, changed
}

// markDeadLocked does the promotion. Caller must hold d.mu.
func (d *Directory) markDeadLocked(shard int) bool {
	d.alive[shard] = false
	succ := -1
	n := len(d.alive)
	for i := 1; i < n; i++ {
		if c := (shard + i) % n; d.alive[c] {
			succ = c
			break
		}
	}
	if succ < 0 {
		// No live successor: leave ownership as-is; Lookup answers
		// not-ok until a shard heartbeats back.
		return false
	}
	moved := false
	for p, s := range d.owner {
		if s == shard {
			d.owner[p] = succ
			moved = true
		}
	}
	if moved {
		d.epoch++
	}
	return moved
}
