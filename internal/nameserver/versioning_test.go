package nameserver

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/kvstore"
)

// TestVersionsMonotonicAndUniqueAcrossRecreate pins the versioning
// contract the client lease cache depends on: versions only grow, every
// record mutation bumps them, and a re-created name can never reuse a
// version its previous incarnation handed out.
func TestVersionsMonotonicAndUniqueAcrossRecreate(t *testing.T) {
	svc := newService(t, t.TempDir())
	registerCluster(t, svc)

	fi, err := svc.Create("v/f", CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fi.Version == 0 {
		t.Fatal("Create returned an unstamped record")
	}
	if err := svc.ReportSize("v/f", 4096); err != nil {
		t.Fatal(err)
	}
	grown, err := svc.Lookup("v/f")
	if err != nil {
		t.Fatal(err)
	}
	if grown.Version <= fi.Version {
		t.Errorf("ReportSize did not bump version: %d -> %d", fi.Version, grown.Version)
	}
	if _, err := svc.Delete("v/f"); err != nil {
		t.Fatal(err)
	}
	again, err := svc.Create("v/f", CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Version <= grown.Version {
		t.Errorf("re-created version %d not above pre-delete %d: a client holding "+
			"the old version could mistake the new file for its cached record",
			again.Version, grown.Version)
	}
}

// TestEpochMovesOnShapeMutationsOnly: the namespace epoch (the Validate
// fast path's correctness lever) must move on create/delete/replica
// changes and must NOT move on size reports — otherwise every append
// would defeat the batched-renewal fast path.
func TestEpochMovesOnShapeMutationsOnly(t *testing.T) {
	svc := newService(t, t.TempDir())
	servers := registerCluster(t, svc)

	fi, err := svc.Create("e/f", CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e0 := svc.Epoch()
	if e0 == 0 {
		t.Fatal("epoch still zero after Create")
	}
	if err := svc.ReportSize("e/f", 1024); err != nil {
		t.Fatal(err)
	}
	if got := svc.Epoch(); got != e0 {
		t.Errorf("ReportSize moved the epoch %d -> %d", e0, got)
	}
	// Replica replacement changes where the data lives: shape mutation.
	var spare ServerInfo
	inSet := func(id string) bool {
		for _, r := range fi.Replicas {
			if r.ServerID == id {
				return true
			}
		}
		return false
	}
	for _, si := range servers {
		if !inSet(si.ID) {
			spare = si
			break
		}
	}
	err = svc.ReplaceReplica("e/f", fi.Primary().ServerID, ReplicaLoc{
		ServerID: spare.ID, ControlAddr: spare.ControlAddr,
		DataAddr: spare.DataAddr, Host: spare.Host,
	})
	if err != nil {
		t.Fatal(err)
	}
	e1 := svc.Epoch()
	if e1 <= e0 {
		t.Errorf("ReplaceReplica did not move the epoch: %d -> %d", e0, e1)
	}
	if _, err := svc.Delete("e/f"); err != nil {
		t.Fatal(err)
	}
	if got := svc.Epoch(); got <= e1 {
		t.Errorf("Delete did not move the epoch: %d -> %d", e1, got)
	}
}

func TestValidateVerdicts(t *testing.T) {
	svc := newService(t, t.TempDir())
	registerCluster(t, svc)

	a, err := svc.Create("val/a", CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Create("val/b", CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Mutate b and delete nothing yet: a's version is current, b's cached
	// copy is stale, and "ghost" never existed.
	if err := svc.ReportSize("val/b", 2048); err != nil {
		t.Fatal(err)
	}
	results, epoch := svc.Validate(0, []ValidateEntry{
		{Name: "val/a", Version: a.Version},
		{Name: "val/b", Version: b.Version},
		{Name: "val/ghost", Version: 7},
	})
	if epoch != svc.Epoch() {
		t.Errorf("Validate returned epoch %d, want %d", epoch, svc.Epoch())
	}
	want := map[string]string{"val/a": ValidateOK, "val/b": ValidateStale, "val/ghost": ValidateGone}
	for _, r := range results {
		if r.Status != want[r.Name] {
			t.Errorf("%s: status %s, want %s", r.Name, r.Status, want[r.Name])
		}
		if r.Status == ValidateStale {
			if r.Info == nil || r.Info.SizeBytes != 2048 {
				t.Errorf("%s: stale verdict missing fresh record: %+v", r.Name, r.Info)
			}
		} else if r.Info != nil {
			t.Errorf("%s: %s verdict carries a record", r.Name, r.Status)
		}
	}

	// Deleted files validate as gone.
	if _, err := svc.Delete("val/a"); err != nil {
		t.Fatal(err)
	}
	results, _ = svc.Validate(0, []ValidateEntry{{Name: "val/a", Version: a.Version}})
	if len(results) != 1 || results[0].Status != ValidateGone {
		t.Errorf("post-delete validate = %+v, want gone", results)
	}
}

// TestValidateEpochFastPath pins the fast path's contract: when the
// client's claimed epoch matches the server's, the whole batch renews OK
// without per-entry checks — sound because under a matching epoch the
// only possible drift is size reports, which the append-only client
// self-corrects from dataserver reads.
func TestValidateEpochFastPath(t *testing.T) {
	svc := newService(t, t.TempDir())
	registerCluster(t, svc)

	fi, err := svc.Create("fp/f", CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.ReportSize("fp/f", 512); err != nil { // version drifts, epoch does not
		t.Fatal(err)
	}
	results, _ := svc.Validate(svc.Epoch(), []ValidateEntry{{Name: "fp/f", Version: fi.Version}})
	if len(results) != 1 || results[0].Status != ValidateOK {
		t.Errorf("epoch fast path = %+v, want blanket OK", results)
	}
	// With a stale claimed epoch the same entry gets the per-entry check.
	results, _ = svc.Validate(0, []ValidateEntry{{Name: "fp/f", Version: fi.Version}})
	if len(results) != 1 || results[0].Status != ValidateStale {
		t.Errorf("stale-epoch validate = %+v, want per-entry stale", results)
	}
}

// TestVersionSeqSurvivesRestart: a restarted nameserver must keep
// issuing versions above everything it ever issued, even for files that
// were deleted before the restart (their versions are gone from the
// store). The persisted version checkpoint covers exactly that.
func TestVersionSeqSurvivesRestart(t *testing.T) {
	store, err := kvstore.Open(t.TempDir(), kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	svc, err := NewService(store, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	registerCluster(t, svc)

	fi, err := svc.Create("r/f", CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Delete("r/f"); err != nil {
		t.Fatal(err)
	}
	deletedVer := fi.Version

	// A new service over the same store is a nameserver restart.
	svc2, err := NewService(store, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	again, err := svc2.Create("r/f", CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Version <= deletedVer {
		t.Errorf("post-restart version %d not above deleted file's %d", again.Version, deletedVer)
	}
}

// crashInside runs a mutation, then simulates a crash that loses the
// mutation's last store write: it closes the store, tears the WAL's last
// record (kvstore replay drops a torn tail) and restarts the nameserver
// over the same directory. Before the mutation, f is created and grown,
// and the returned record is what a client caches from that.
func crashInside(t *testing.T, mutate func(*Service)) (cached FileInfo, restarted *Service) {
	t.Helper()
	dir := t.TempDir()
	store, err := kvstore.Open(dir, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(store, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	registerCluster(t, svc)
	if _, err := svc.Create("c/f", CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	// The size report's version lives only in f's record.
	if err := svc.ReportSize("c/f", 4096); err != nil {
		t.Fatal(err)
	}
	if cached, err = svc.Lookup("c/f"); err != nil {
		t.Fatal(err)
	}
	mutate(svc)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "WAL")
	st, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, st.Size()-1); err != nil {
		t.Fatal(err)
	}
	return cached, newService(t, dir)
}

// assertNoReissue re-creates f on the restarted nameserver (deleting it
// first if the crash lost its deletion) and checks that the client's
// cached record cannot validate against the new incarnation.
func assertNoReissue(t *testing.T, cached FileInfo, svc *Service) {
	t.Helper()
	if _, err := svc.Delete("c/f"); err != nil && !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	again, err := svc.Create("c/f", CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Version <= cached.Version {
		t.Errorf("re-created f at version %d, not above the cached %d", again.Version, cached.Version)
	}
	res, _ := svc.Validate(0, []ValidateEntry{{Name: "c/f", Version: cached.Version}})
	if res[0].Status == ValidateOK {
		t.Errorf("Validate answered ok for the deleted file's record (id %s); the new file is %s",
			cached.ID, again.ID)
	}
}

// TestDeleteCrashNeverReissuesAVersion: a crash inside Delete must not
// let a restarted nameserver issue a version the deleted record held.
func TestDeleteCrashNeverReissuesAVersion(t *testing.T) {
	cached, svc := crashInside(t, func(svc *Service) {
		if _, err := svc.Delete("c/f"); err != nil {
			t.Fatal(err)
		}
	})
	assertNoReissue(t, cached, svc)
}

// TestRebuildCrashNeverReissuesAVersion: the same for a Rebuild whose
// scan no longer finds the file.
func TestRebuildCrashNeverReissuesAVersion(t *testing.T) {
	cached, svc := crashInside(t, func(svc *Service) {
		if err := svc.Rebuild(context.Background(), &fakeScanner{}); err != nil {
			t.Fatal(err)
		}
	})
	assertNoReissue(t, cached, svc)
}

func TestLookupMissingIsNotFound(t *testing.T) {
	svc := newService(t, t.TempDir())
	if _, err := svc.Lookup("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Lookup missing = %v, want ErrNotFound", err)
	}
}
