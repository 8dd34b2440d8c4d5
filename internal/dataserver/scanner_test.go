package dataserver

import (
	"bytes"
	"context"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/nameserver"
)

// TestRebuildFromRealDataservers exercises the full §3.3.1 crash-recovery
// path: a nameserver that lost its database reconstructs the file table by
// scanning live dataservers over RPC.
func TestRebuildFromRealDataservers(t *testing.T) {
	c := startCluster(t, 3, 32)

	// Write some data so local sizes are non-trivial.
	payload := bytes.Repeat([]byte("r"), 100)
	var reply AppendReply
	if err := appendVia(c.ctl[0], AppendArgs{FileID: c.info.ID, Data: payload}, &reply); err != nil {
		t.Fatal(err)
	}

	// A fresh nameserver knowing only the dataservers (not the files).
	store := newNSStore(t)
	svc, err := nameserver.NewService(store, testRand())
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range c.servers {
		err := svc.RegisterServer(nameserver.ServerInfo{
			ID:          s.cfg.ID,
			ControlAddr: s.ControlAddr(),
			DataAddr:    s.DataAddr(),
			Host:        s.cfg.Host,
			Pod:         i, // arbitrary coordinates
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if svc.NumFiles() != 0 {
		t.Fatal("fresh nameserver should know no files")
	}

	if err := svc.Rebuild(context.Background(), &RPCScanner{}); err != nil {
		t.Fatal(err)
	}
	got, err := svc.Lookup("cluster-file")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != c.info.ID {
		t.Errorf("rebuilt id = %s, want %s", got.ID, c.info.ID)
	}
	if got.SizeBytes != 100 {
		t.Errorf("rebuilt size = %d, want 100", got.SizeBytes)
	}
	if len(got.Replicas) != 3 {
		t.Errorf("rebuilt replicas = %d, want 3", len(got.Replicas))
	}
}

func TestRPCScannerDeadServer(t *testing.T) {
	sc := &RPCScanner{}
	_, err := sc.ScanFiles(context.Background(), nameserver.ServerInfo{
		ID:          "gone",
		ControlAddr: "127.0.0.1:1",
	})
	if err == nil {
		t.Fatal("scan of dead server succeeded")
	}
}
