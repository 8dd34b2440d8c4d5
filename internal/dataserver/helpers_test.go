package dataserver

import (
	"context"
	"math/rand"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/kvstore"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
)

// appendVia sends one ds.Append through the typed stub — the only route
// that carries Data, which rides the frame's attachment and is no longer
// a JSON field a raw Call would marshal.
func appendVia(cc rpc.Caller, args AppendArgs, reply *AppendReply) (err error) {
	*reply, err = NewClient(cc).Append(context.Background(), args)
	return err
}

func newNSStore(t *testing.T) *kvstore.Store {
	t.Helper()
	store, err := kvstore.Open(t.TempDir(), kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

func testRand() *rand.Rand { return rand.New(rand.NewSource(1)) }
