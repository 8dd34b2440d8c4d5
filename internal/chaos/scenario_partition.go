package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/client"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/testbed"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// partition is a client-side network partition: dials to blocked
// addresses fail while active, and connections already open to them —
// control sessions and the client's pooled data connections alike — are
// severed on activation (a real partition kills established flows too).
type partition struct {
	mu      sync.Mutex
	active  bool
	blocked map[string]bool
	open    []io.Closer // conns to blocked addrs opened through us
}

var errPartitioned = fmt.Errorf("chaos: host partitioned")

func (p *partition) cut(addr string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active && p.blocked[addr]
}

// track remembers a connection to a blocked address for activate to sever.
func (p *partition) track(addr string, c io.Closer) {
	p.mu.Lock()
	if p.blocked[addr] {
		p.open = append(p.open, c)
	}
	p.mu.Unlock()
}

// dialData is a client DialData hook honoring the partition. The client
// pools what it returns: untracked, reads after activation would ride
// pre-partition connections straight through it.
func (p *partition) dialData(ctx context.Context, addr string) (net.Conn, error) {
	if p.cut(addr) {
		return nil, errPartitioned
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err == nil {
		p.track(addr, conn)
	}
	return conn, err
}

// dialControl is a client DialControl hook honoring the partition: it
// feeds the client's session pool, so severed sessions re-enter here on
// the pool's reconnect and fail while the partition is active.
func (p *partition) dialControl(ctx context.Context, addr string) (*wire.Client, error) {
	if p.cut(addr) {
		return nil, errPartitioned
	}
	c, err := rpc.DialSession(ctx, addr)
	if err == nil {
		p.track(addr, c)
	}
	return c, err
}

// activate starts the partition, severing tracked connections into it.
func (p *partition) activate() {
	p.mu.Lock()
	p.active = true
	sever := p.open
	p.open = nil
	p.mu.Unlock()
	for _, c := range sever {
		c.Close()
	}
}

// heal ends the partition.
func (p *partition) heal() {
	p.mu.Lock()
	p.active = false
	p.mu.Unlock()
}

// PartitionRack cuts a client off from every dataserver in a seed-chosen
// rack holding a replica of f0 and asserts reads of every file still
// succeed by failing over to replicas outside the partition. The client
// pre-picks a replica inside the victim rack when a file has one (the
// Flowserver, blind to the partition, schedules the path but would pick
// that replica only on some seeds), so the baseline pass pools data
// connections into the rack and the partitioned pass must fail over on
// every seed. After healing, reads succeed again.
func PartitionRack(ctx context.Context, t *T) error {
	d, err := newDeployment(t, testbed.ModeMayflower)
	if err != nil {
		return err
	}
	defer d.Close()

	// The blocked set is filled once the victim rack is chosen.
	part := &partition{blocked: make(map[string]bool)}
	// Metadata bootstrap client (not partitioned) pins placements.
	boot, err := d.cluster.Client(d.hosts[0])
	if err != nil {
		return err
	}
	sums, repSets, err := d.createFiles(ctx, t, boot, 3, 128<<10)
	if err != nil {
		return err
	}

	// Victim rack: the rack of a seed-chosen replica of f0. Racks hold 2
	// of 8 hosts, so every 3-replica file keeps at least one replica
	// outside the partition.
	victimID := repSets[0][t.Intn(len(repSets[0]))]
	victimRack := d.rackOf[victimID]
	for id, rack := range d.rackOf {
		if rack != victimRack {
			continue
		}
		ctl, data, err := d.cluster.DataserverAddrs(d.hostOf[id])
		if err != nil {
			return err
		}
		part.mu.Lock()
		part.blocked[ctl] = true
		part.blocked[data] = true
		part.mu.Unlock()
	}
	// The observing client lives outside the victim rack (first such host
	// in topology order — deterministic).
	clientNode := d.hosts[0]
	for _, h := range d.hosts {
		node := d.cluster.Topo.Node(h)
		if node.Pod*chaosTopo().RacksPerPod+node.Rack != victimRack {
			clientNode = h
			break
		}
	}
	reg := obs.NewRegistry()
	cl, err := d.cluster.NewClient(clientNode, func(o *client.Options) {
		o.DialData = part.dialData
		o.DialControl = part.dialControl
		o.RetryBackoff = 10 * time.Millisecond
		o.Metrics = reg
		o.PickReplica = func(info nameserver.FileInfo) nameserver.ReplicaLoc {
			inRack := func(r nameserver.ReplicaLoc) bool { return d.rackOf[r.ServerID] == victimRack }
			return info.Replicas[max(0, slices.IndexFunc(info.Replicas, inRack))] // else the primary
		}
	})
	if err != nil {
		return err
	}

	sched := &Scheduler{}
	sched.At(0, "read all files (baseline)", func() error {
		return readAll(ctx, t, cl, sums, "baseline")
	})
	sched.At(10*time.Millisecond, fmt.Sprintf("partition rack %d", victimRack), func() error {
		part.activate()
		return nil
	})
	sched.At(20*time.Millisecond, "read all files (partitioned)", func() error {
		// The reads must meet the partition, not slip through it on data
		// connections pooled during the baseline pass.
		failed := reg.Counter("client.read_attempts_err")
		before := failed.Value()
		err := readAll(ctx, t, cl, sums, "partitioned")
		if err == nil && failed.Value() == before {
			err = errors.New("no read attempt failed across the partition: failover was not exercised")
		}
		return err
	})
	sched.At(30*time.Millisecond, "heal partition", func() error {
		part.heal()
		return nil
	})
	sched.At(40*time.Millisecond, "read all files (healed)", func() error {
		return readAll(ctx, t, cl, sums, "healed")
	})
	return sched.Run(t)
}
