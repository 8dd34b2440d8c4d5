package repair

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/dataserver"
	"github.com/mayflower-dfs/mayflower/internal/kvstore"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// fixture is a nameserver plus dataservers with heartbeats flowing.
type fixture struct {
	svc     *nameserver.Service
	nsAddr  string
	servers []*dataserver.Server
}

// startFixture boots a nameserver RPC endpoint and n dataservers spread
// over n racks, each heartbeating every 20 ms.
func startFixture(t *testing.T, n int) *fixture {
	t.Helper()
	store, err := kvstore.Open(t.TempDir(), kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	svc, err := nameserver.NewService(store, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	nsSrv := wire.NewServer()
	if err := nameserver.RegisterRPC(nsSrv, svc); err != nil {
		t.Fatal(err)
	}
	nsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go nsSrv.Serve(nsLn)
	t.Cleanup(func() { nsSrv.Close() })

	f := &fixture{svc: svc, nsAddr: nsLn.Addr().String()}
	for i := 0; i < n; i++ {
		ds, err := dataserver.New(dataserver.Config{
			ID:                fmt.Sprintf("ds-%d", i),
			Root:              t.TempDir(),
			Host:              fmt.Sprintf("host-p0-r%d-h0", i),
			Rack:              i,
			HeartbeatInterval: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctlLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dataLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Start(ctlLn, dataLn, f.nsAddr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		f.servers = append(f.servers, ds)
	}
	return f
}

// createFile creates and fills a 3-replica file on servers 0, 1, 2.
func createFile(t *testing.T, f *fixture, name string, payload []byte) nameserver.FileInfo {
	t.Helper()
	fi, err := f.svc.Create(name, nameserver.CreateOptions{
		ChunkSize:         64,
		PreferredReplicas: []string{"ds-0", "ds-1", "ds-2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cc := rpc.NewPeer(fi.Primary().ControlAddr, rpc.Options{})
	defer cc.Close()
	var out struct{}
	if err := cc.Call(context.Background(), string(dataserver.MethodPrepare),
		dataserver.PrepareArgs{Info: fi, Relay: true}, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := dataserver.NewClient(cc).Append(context.Background(),
		dataserver.AppendArgs{FileID: fi.ID, Name: name, Data: payload}); err != nil {
		t.Fatal(err)
	}
	return fi
}

func statOn(t *testing.T, ctlAddr string, fi nameserver.FileInfo) int64 {
	t.Helper()
	cc := rpc.NewPeer(ctlAddr, rpc.Options{})
	defer cc.Close()
	var st dataserver.StatReply
	if err := cc.Call(context.Background(), string(dataserver.MethodStat),
		dataserver.FileIDArgs{FileID: fi.ID}, &st); err != nil {
		t.Fatal(err)
	}
	return st.SizeBytes
}

func TestRepairReplacesDeadSecondary(t *testing.T) {
	f := startFixture(t, 4)
	payload := bytes.Repeat([]byte("fault-tolerance "), 20) // 320 bytes, 5 chunks
	fi := createFile(t, f, "repairme", payload)

	// Kill the second replica and let its heartbeats lapse.
	f.servers[1].Close()
	time.Sleep(150 * time.Millisecond)

	res, err := Run(context.Background(), Config{
		Service:   f.svc,
		DeadAfter: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dead) != 1 || res.Dead[0] != "ds-1" {
		t.Fatalf("Dead = %v", res.Dead)
	}
	if res.Repaired != 1 || len(res.Lost) != 0 || len(res.Faults) != 0 {
		t.Fatalf("result = %+v", res)
	}

	// Metadata now points at ds-3 instead of ds-1, same primary.
	got, err := f.svc.Lookup("repairme")
	if err != nil {
		t.Fatal(err)
	}
	if got.Primary().ServerID != "ds-0" {
		t.Errorf("primary = %s, want ds-0", got.Primary().ServerID)
	}
	ids := map[string]bool{}
	for _, r := range got.Replicas {
		ids[r.ServerID] = true
	}
	if ids["ds-1"] || !ids["ds-3"] {
		t.Errorf("replicas = %v", ids)
	}
	// The replacement holds every byte.
	if size := statOn(t, f.servers[3].ControlAddr(), fi); size != int64(len(payload)) {
		t.Errorf("replacement size = %d, want %d", size, len(payload))
	}

	// A second pass has nothing to do for this file.
	res, err = Run(context.Background(), Config{Service: f.svc, DeadAfter: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired != 0 || len(res.Faults) != 0 {
		t.Fatalf("second pass = %+v", res)
	}
}

func TestRepairPromotesPrimary(t *testing.T) {
	f := startFixture(t, 4)
	payload := bytes.Repeat([]byte("x"), 100)
	fi := createFile(t, f, "promoted", payload)

	// Kill the primary.
	f.servers[0].Close()
	time.Sleep(150 * time.Millisecond)

	res, err := Run(context.Background(), Config{Service: f.svc, DeadAfter: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired != 1 {
		t.Fatalf("result = %+v", res)
	}
	got, err := f.svc.Lookup("promoted")
	if err != nil {
		t.Fatal(err)
	}
	if got.Primary().ServerID != "ds-1" {
		t.Fatalf("promoted primary = %s, want ds-1", got.Primary().ServerID)
	}

	// Appends keep working through the new primary: its local metadata
	// was rewritten, so it accepts the orderer role and relays to the
	// surviving + replacement replicas.
	cc := rpc.NewPeer(got.Primary().ControlAddr, rpc.Options{})
	defer cc.Close()
	reply, err := dataserver.NewClient(cc).Append(context.Background(),
		dataserver.AppendArgs{FileID: fi.ID, Name: "promoted", Data: []byte("more")})
	if err != nil {
		t.Fatalf("append through promoted primary: %v", err)
	}
	if reply.SizeBytes != 104 {
		t.Fatalf("size after append = %d, want 104", reply.SizeBytes)
	}
	// Every live replica converged on 104 bytes.
	for _, idx := range []int{1, 2, 3} {
		if size := statOn(t, f.servers[idx].ControlAddr(), fi); size != 104 {
			t.Errorf("ds-%d size = %d, want 104", idx, size)
		}
	}
}

func TestRepairReportsLostFiles(t *testing.T) {
	f := startFixture(t, 4)
	createFile(t, f, "doomed", []byte("bytes"))
	f.servers[0].Close()
	f.servers[1].Close()
	f.servers[2].Close()
	time.Sleep(150 * time.Millisecond)

	res, err := Run(context.Background(), Config{Service: f.svc, DeadAfter: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lost) == 0 || res.Lost[0] != "doomed" {
		t.Fatalf("Lost = %v", res.Lost)
	}
	if res.Repaired != 0 {
		t.Fatalf("Repaired = %d", res.Repaired)
	}
}

func TestRepairNoDeadServersIsNoop(t *testing.T) {
	f := startFixture(t, 3)
	createFile(t, f, "healthy", []byte("ok"))
	res, err := Run(context.Background(), Config{Service: f.svc, DeadAfter: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dead) != 0 || res.Repaired != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("missing service accepted")
	}
	f := startFixture(t, 3)
	if _, err := Run(context.Background(), Config{Service: f.svc}); err == nil {
		t.Error("zero DeadAfter accepted")
	}
}
