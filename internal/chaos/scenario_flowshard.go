package chaos

import (
	"context"
	"fmt"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/client"
	"github.com/mayflower-dfs/mayflower/internal/testbed"
)

// KillFlowserverShardMidSelect runs the sharded control plane's fault
// script: the flow controller is partitioned into two shards behind the
// directory, and the shard owning the reading client's pod is killed
// while concurrent reads are in flight. The invariants:
//
//   - every in-flight read completes (degraded locality-order selection
//     or a retried Select against the promoted shard — never a hang);
//   - the directory promotes the dead shard's pods to the survivor
//     under a bumped epoch, exactly once;
//   - once the client's route TTL lapses it re-resolves through the
//     directory and scheduled reads recover on the promoted shard.
func KillFlowserverShardMidSelect(ctx context.Context, t *T) error {
	d, err := newDeploymentWith(t, testbed.ModeMayflower, func(c *testbed.ClusterConfig) {
		c.FlowShards = 2
	})
	if err != nil {
		return err
	}
	defer d.Close()

	// The client lives in pod 1 — shard 1's territory under the initial
	// p mod 2 layout — with a short route TTL so the scenario observes
	// recovery onto the promoted shard, not just degradation.
	cl, err := d.cluster.NewClient(d.cluster.Topo.HostAt(1, 0, 0), func(o *client.Options) {
		o.FlowserverTimeout = 250 * time.Millisecond
		o.RetryBackoff = 10 * time.Millisecond
		o.FlowRouteTTL = 20 * time.Millisecond
	})
	if err != nil {
		return err
	}
	sums, _, err := d.createFiles(ctx, t, cl, 3, 128<<10)
	if err != nil {
		return err
	}

	var join func() error
	sched := &Scheduler{}
	sched.At(0, "read all files (shard-routed)", func() error {
		return readAll(ctx, t, cl, sums, "sharded")
	})
	sched.At(5*time.Millisecond, "start concurrent reads of 3 files", func() error {
		join = startReads(ctx, t, cl, sums, "during shard kill")
		return nil
	})
	sched.At(7*time.Millisecond, "kill flow shard 1 (owns reader pod)", func() error {
		if err := d.cluster.KillFlowShard(1); err != nil {
			return err
		}
		shard, _, epoch, ok := d.cluster.Plane().Directory().Lookup(1)
		if !ok || shard != 0 {
			return fmt.Errorf("pod 1 owner after kill = %d (ok=%v), want shard 0", shard, ok)
		}
		if epoch != 2 {
			return fmt.Errorf("directory epoch after kill = %d, want 2", epoch)
		}
		t.Eventf("failover: pod 1 -> shard %d epoch=%d", shard, epoch)
		return nil
	})
	sched.At(9*time.Millisecond, "join reads", func() error {
		return join()
	})
	// Well past the 20 ms route TTL: the client has re-resolved through
	// the directory and selections land on the promoted shard.
	sched.At(100*time.Millisecond, "read all files (re-routed)", func() error {
		return readAll(ctx, t, cl, sums, "re-routed")
	})
	return sched.Run(t)
}
