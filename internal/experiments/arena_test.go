package experiments

import (
	"runtime"
	"testing"
)

// An idle arena must outlive garbage collection and come back to
// whichever goroutine asks next: a worker that moves to another P
// between runs keeps its warm wheel, slot table and packet pools instead
// of rebuilding them.
func TestArenaReuseAcrossGCAndGoroutines(t *testing.T) {
	put := make(chan *simArena)
	go func() {
		a := getArena()
		putArena(a)
		put <- a
	}()
	want := <-put
	runtime.GC()
	runtime.GC()
	got := make(chan *simArena)
	go func() { got <- getArena() }()
	a := <-got
	defer putArena(a)
	if a != want {
		t.Fatal("getArena built a new arena instead of returning the one put last")
	}
}
