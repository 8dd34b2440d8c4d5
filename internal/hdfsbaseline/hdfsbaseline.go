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
	"strings"
	"sync"

	"github.com/mayflower-dfs/mayflower/internal/nameserver"
)

// Locator maps a topology host name to its (pod, rack) coordinates; ok is
// false for unknown hosts.
type Locator func(host string) (pod, rack int, ok bool)

// RackAwarePicker returns a replica picker implementing HDFS's rack-aware
// read policy for a client at the given host: a replica on the client's
// own host wins, then a replica in the client's rack, then a uniformly
// random replica. The picker is safe for concurrent use (a client's reads
// run concurrently) and must own rng: it serializes its own draws only.
func RackAwarePicker(clientHost string, locate Locator, rng *rand.Rand) func(nameserver.FileInfo) nameserver.ReplicaLoc {
	clientPod, clientRack, clientKnown := locate(clientHost)
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
				if pod, rack, ok := locate(rep.Host); ok && pod == clientPod && rack == clientRack {
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

// NameLocator derives (pod, rack) from this repository's canonical host
// naming scheme ("host-p<pod>-r<rack>-h<idx>"), avoiding a topology
// dependency for deployments that follow it.
func NameLocator(host string) (pod, rack int, ok bool) {
	parts := strings.Split(host, "-")
	if len(parts) != 4 || parts[0] != "host" {
		return 0, 0, false
	}
	p, okP := parseCoord(parts[1], 'p')
	r, okR := parseCoord(parts[2], 'r')
	if !okP || !okR {
		return 0, 0, false
	}
	return p, r, true
}

func parseCoord(s string, prefix byte) (int, bool) {
	if len(s) < 2 || s[0] != prefix {
		return 0, false
	}
	n := 0
	for i := 1; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}
