package experiments

import (
	"runtime"
	"testing"

	"repro/internal/shard"
)

// An idle cluster must outlive garbage collection and come back to
// whichever goroutine asks next: a worker that moves to another P
// between runs keeps its warm wheels, slot tables and packet pools
// instead of rebuilding them.
func TestArenaReuseAcrossGCAndGoroutines(t *testing.T) {
	put := make(chan *shard.Cluster)
	go func() {
		c, key := getCluster(1)
		putCluster(c, key)
		put <- c
	}()
	want := <-put
	runtime.GC()
	runtime.GC()
	got := make(chan *shard.Cluster)
	go func() {
		c, _ := getCluster(1)
		got <- c
	}()
	c := <-got
	defer putCluster(c, "")
	if c != want {
		t.Fatal("getCluster built a new cluster instead of returning the one put last")
	}
}
