package flowctl

import (
	"errors"
	"math"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// TestLocalReplicaWinsImmediately: a replica co-located with the client
// is a local read, whatever the other replicas' paths cost, and registers
// nothing.
func TestLocalReplicaWinsImmediately(t *testing.T) {
	topo := writeTopo(t)
	srv := oneShard(t, topo)
	client, remote := topo.HostAt(0, 1, 0), topo.HostAt(0, 0, 0)
	as, err := srv.SelectReplicaAndPath(flowserver.Request{
		Client: client, Replicas: []topology.NodeID{remote, client}, Bits: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 || !as[0].Local() || as[0].Replica != client {
		t.Errorf("assignments = %+v, want a single local read", as)
	}
	if !math.IsInf(as[0].EstimatedBw, 1) {
		t.Errorf("local EstimatedBw = %g, want +Inf", as[0].EstimatedBw)
	}
	if n := srv.Server().NumFlows(); n != 0 {
		t.Errorf("NumFlows = %d, want 0 (a local read registers nothing)", n)
	}
}

// TestSelectErrors pins the read-side argument validation.
func TestSelectErrors(t *testing.T) {
	topo := writeTopo(t)
	srv := oneShard(t, topo)
	client, replica := topo.HostAt(0, 1, 0), topo.HostAt(0, 0, 0)
	if _, err := srv.SelectReplicaAndPath(flowserver.Request{Client: client}); !errors.Is(err, flowserver.ErrNoReplicas) {
		t.Errorf("empty replicas: got %v, want flowserver.ErrNoReplicas", err)
	}
	if _, err := srv.SelectReplicaAndPath(flowserver.Request{
		Client: client, Replicas: []topology.NodeID{replica}, Bits: -1,
	}); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := srv.SelectPath(client, replica, -1); err == nil {
		t.Error("SelectPath negative size accepted")
	}
}
