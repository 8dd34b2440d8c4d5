package chaos

import (
	"context"
	"fmt"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/repair"
	"github.com/mayflower-dfs/mayflower/internal/testbed"
)

// KillDataserverMidRead kills a seed-chosen replica of f0 while
// concurrent reads of every file are in flight, and asserts:
//
//   - every read completes successfully via client failover (no hangs,
//     no partial data — checksums verified), mid-stream or about to
//     reuse a connection to the victim pooled by the warm-up pass;
//   - a repair pass declares the victim dead exactly once and
//     re-replicates every file that lost a replica (re-replication kick
//     on confirmed death);
//   - reads after repair still succeed.
func KillDataserverMidRead(ctx context.Context, t *T) error {
	d, err := newDeployment(t, testbed.ModeMayflower)
	if err != nil {
		return err
	}
	defer d.Close()

	cl, err := d.cluster.Client(d.hosts[0])
	if err != nil {
		return err
	}
	sums, repSets, err := d.createFiles(ctx, t, cl, 4, 192<<10)
	if err != nil {
		return err
	}

	victim := repSets[0][t.Intn(len(repSets[0]))]
	host := d.hostOf[victim]
	// Files that lose a replica when the victim dies — the repair pass
	// must replace exactly these.
	expectRepairs := 0
	for _, reps := range repSets {
		for _, id := range reps {
			if id == victim {
				expectRepairs++
			}
		}
	}

	var join func() error
	sched := &Scheduler{}
	sched.At(0, "read all files (warm-up)", func() error {
		return readAll(ctx, t, cl, sums, "warm-up")
	})
	sched.At(2*time.Millisecond, "start concurrent reads of 4 files", func() error {
		join = startReads(ctx, t, cl, sums, "during kill")
		return nil
	})
	sched.At(4*time.Millisecond, fmt.Sprintf("kill dataserver %s", victim), func() error {
		_, err := d.cluster.KillDataserver(host)
		return err
	})
	sched.At(6*time.Millisecond, "join reads", func() error {
		return join()
	})
	// Past the heartbeat-silence threshold: the nameserver's liveness view
	// has confirmed the death and a repair pass can act on it.
	sched.At(600*time.Millisecond, "repair pass", func() error {
		mon := repair.NewMonitor(repair.Config{
			Service:   d.cluster.NameserverService(),
			DeadAfter: 250 * time.Millisecond,
		})
		res, err := mon.Pass(ctx)
		if err != nil {
			return err
		}
		if len(res.Dead) != 1 || res.Dead[0] != victim {
			return fmt.Errorf("declared dead %v, want [%s]", res.Dead, victim)
		}
		if len(res.Lost) > 0 || len(res.Faults) > 0 {
			return fmt.Errorf("repair lost=%v faults=%v", res.Lost, res.Faults)
		}
		if res.Repaired != expectRepairs {
			return fmt.Errorf("repaired %d replicas, want %d", res.Repaired, expectRepairs)
		}
		t.Eventf("declared dead: %v, re-replicated %d replicas", res.Dead, res.Repaired)

		// A second pass must not re-declare or re-repair.
		res2, err := mon.Pass(ctx)
		if err != nil {
			return err
		}
		if len(res2.Dead) != 0 || res2.Repaired != 0 {
			return fmt.Errorf("second pass dead=%v repaired=%d, want none", res2.Dead, res2.Repaired)
		}
		t.Eventf("second pass: no new declarations, no re-repair")
		return nil
	})
	sched.At(610*time.Millisecond, "read all files after repair", func() error {
		return readAll(ctx, t, cl, sums, "post-repair")
	})
	return sched.Run(t)
}
