// Package hdfsbaseline reproduces HDFS's read-side replica selection for
// the paper's prototype comparison (§6.7): "HDFS selects the replica in
// the same rack where the client is located, if any such replica exists";
// otherwise the choice is effectively random. Plugging this picker into
// the Mayflower client (instead of the Flowserver) yields the HDFS
// baseline running over the identical server substrate, so Figure 8
// isolates exactly the selection policy.
package hdfsbaseline

import (
	"math/rand"
	"sync"

	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// RackAwarePicker returns a replica picker implementing HDFS's rack-aware
// read policy for a client at the given host: a replica on the client's
// own host wins, then a replica in the client's rack, then a uniformly
// random replica; racks come from topology.ParseHostName. The picker is
// safe for concurrent use (a client's reads run concurrently) and must
// own rng: it serializes its own draws only.
func RackAwarePicker(clientHost string, rng *rand.Rand) func(nameserver.FileInfo) nameserver.ReplicaLoc {
	clientPod, clientRack, clientKnown := topology.ParseHostName(clientHost)
	var mu sync.Mutex
	intn := func(n int) int {
		mu.Lock()
		defer mu.Unlock()
		return rng.Intn(n)
	}
	return func(info nameserver.FileInfo) nameserver.ReplicaLoc {
		for _, rep := range info.Replicas {
			if rep.Host == clientHost {
				return rep
			}
		}
		if clientKnown {
			var local []nameserver.ReplicaLoc
			for _, rep := range info.Replicas {
				if pod, rack, ok := topology.ParseHostName(rep.Host); ok && pod == clientPod && rack == clientRack {
					local = append(local, rep)
				}
			}
			if len(local) > 0 {
				return local[intn(len(local))]
			}
		}
		return info.Replicas[intn(len(info.Replicas))]
	}
}
