package hdfsbaseline

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/nameserver"
)

func info(hosts ...string) nameserver.FileInfo {
	fi := nameserver.FileInfo{}
	for _, h := range hosts {
		fi.Replicas = append(fi.Replicas, nameserver.ReplicaLoc{ServerID: "ds-" + h, Host: h})
	}
	return fi
}

func TestRackAwarePickerPrefersLocalHost(t *testing.T) {
	pick := RackAwarePicker("host-p0-r0-h0", rand.New(rand.NewSource(1)))
	fi := info("host-p1-r0-h0", "host-p0-r0-h0", "host-p2-r0-h0")
	got := pick(fi)
	if got.Host != "host-p0-r0-h0" {
		t.Errorf("pick = %s, want co-located replica", got.Host)
	}
}

func TestRackAwarePickerPrefersRack(t *testing.T) {
	pick := RackAwarePicker("host-p0-r1-h0", rand.New(rand.NewSource(2)))
	fi := info("host-p1-r0-h0", "host-p0-r1-h3", "host-p2-r0-h0")
	for i := 0; i < 20; i++ {
		if got := pick(fi); got.Host != "host-p0-r1-h3" {
			t.Fatalf("pick = %s, want rack-local replica", got.Host)
		}
	}
}

func TestRackAwarePickerRandomFallback(t *testing.T) {
	pick := RackAwarePicker("host-p3-r3-h0", rand.New(rand.NewSource(3)))
	fi := info("host-p1-r0-h0", "host-p0-r1-h3", "host-p2-r0-h0")
	seen := make(map[string]int)
	for i := 0; i < 600; i++ {
		seen[pick(fi).Host]++
	}
	if len(seen) != 3 {
		t.Fatalf("fallback used %d replicas, want all 3: %v", len(seen), seen)
	}
	for host, n := range seen {
		if n < 100 {
			t.Errorf("replica %s picked only %d/600 times", host, n)
		}
	}
}

func TestRackAwarePickerUnknownClientHost(t *testing.T) {
	pick := RackAwarePicker("mystery-host", rand.New(rand.NewSource(4)))
	fi := info("host-p1-r0-h0", "host-p2-r0-h0")
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		seen[pick(fi).Host] = true
	}
	if len(seen) != 2 {
		t.Errorf("unknown client host should fall back to random: %v", seen)
	}
}

// TestRackAwarePickerConcurrent: one HDFS-mode client reads from many
// goroutines through one picker (run under -race).
func TestRackAwarePickerConcurrent(t *testing.T) {
	pick := RackAwarePicker("host-p3-r3-h0", rand.New(rand.NewSource(5)))
	fi := info("host-p1-r0-h0", "host-p0-r1-h3", "host-p2-r0-h0")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				pick(fi)
			}
		}()
	}
	wg.Wait()
}
