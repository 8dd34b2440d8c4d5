package chaos

import (
	"context"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/client"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/testbed"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// flowserverFault runs the shared Flowserver-fault script: reads succeed
// through the Flowserver, the given fault is injected into its RPC path,
// and reads must keep succeeding — degraded to locality-order replica
// selection — without panics or hangs.
func flowserverFault(ctx context.Context, t *T, faultName string, mode ProxyMode) error {
	d, err := newDeployment(t, testbed.ModeMayflower)
	if err != nil {
		return err
	}
	defer d.Close()

	// The client reaches the Flowserver — directory lookups and the shard
	// they route it to are one endpoint — only through the fault proxy; a
	// short Select deadline keeps the stall case snappy.
	fsAddr := d.cluster.FlowserverAddr()
	proxy, err := NewProxy(fsAddr)
	if err != nil {
		return err
	}
	defer proxy.Close()
	cl, err := d.cluster.NewClient(d.hosts[0], func(o *client.Options) {
		o.DialControl = func(ctx context.Context, addr string) (*wire.Client, error) {
			if addr == fsAddr {
				addr = proxy.Addr()
			}
			return rpc.DialSession(ctx, addr)
		}
		o.FlowserverTimeout = 250 * time.Millisecond
		o.RetryBackoff = 10 * time.Millisecond
	})
	if err != nil {
		return err
	}
	sums, _, err := d.createFiles(ctx, t, cl, 3, 128<<10)
	if err != nil {
		return err
	}

	sched := &Scheduler{}
	sched.At(0, "read all files (flowserver-scheduled)", func() error {
		return readAll(ctx, t, cl, sums, "scheduled")
	})
	sched.At(10*time.Millisecond, faultName, func() error {
		proxy.SetMode(mode)
		return nil
	})
	sched.At(20*time.Millisecond, "read all files (degraded)", func() error {
		return readAll(ctx, t, cl, sums, "degraded")
	})
	return sched.Run(t)
}

// FlowserverUnreachable severs the client's Flowserver connectivity
// outright (connections refused): Select fails fast and reads degrade to
// locality-order replica selection.
func FlowserverUnreachable(ctx context.Context, t *T) error {
	return flowserverFault(ctx, t, "drop flowserver connectivity", ProxyDrop)
}

// FlowserverStall wedges the Flowserver's RPC path (connections accepted,
// bytes withheld): Select hangs until the client's FlowserverTimeout
// fires, then reads degrade to locality-order replica selection.
func FlowserverStall(ctx context.Context, t *T) error {
	return flowserverFault(ctx, t, "stall flowserver connectivity", ProxyBlackhole)
}
