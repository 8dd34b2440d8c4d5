package flowserver_test

import (
	"context"
	"strings"
	"testing"
)

// TestSelectResolvesHostNames: over a real wire server, a selection's
// host names resolve to the topology's hosts and its reply names the
// replica back; a name the topology did not give out (out of range,
// re-spelled, a switch's) is refused with the role it played, before
// the selection surface sees it.
func TestSelectResolvesHostNames(t *testing.T) {
	f := newReleaseFixture(t)
	ctx := context.Background()
	as, err := f.stub.Select(ctx, f.read)
	if err != nil || len(as) != 1 || as[0].ReplicaHost != f.read.ReplicaHosts[0] {
		t.Fatalf("Select(%+v) = %+v, %v; want one assignment on %s", f.read, as, err, f.read.ReplicaHosts[0])
	}
	wantErr := func(err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("got %v, want an error containing %s", err, want)
		}
	}
	read := f.read
	read.ClientHost = "host-p9-r0-h0"
	_, err = f.stub.Select(ctx, read)
	wantErr(err, `unknown client host "host-p9-r0-h0"`)
	read = f.read
	read.ReplicaHosts = []string{"host-p0-r0-h01"}
	_, err = f.stub.Select(ctx, read)
	wantErr(err, `unknown replica host "host-p0-r0-h01"`)
	write := f.write
	write.SourceHost = "edge-p0-r0"
	_, err = f.stub.SelectWrite(ctx, write)
	wantErr(err, `unknown source host "edge-p0-r0"`)
	write = f.write
	write.TargetHosts = []string{"host-p0-r0-h2"}
	_, err = f.stub.SelectWrite(ctx, write)
	wantErr(err, `unknown target host "host-p0-r0-h2"`)
	f.rec.mu.Lock()
	defer f.rec.mu.Unlock()
	if f.rec.next != 1 {
		t.Errorf("the selection surface served %d selections, want only the first", f.rec.next)
	}
}
