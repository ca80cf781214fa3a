package serve

// streamTracker as tables: no server, no requests.

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func TestStreamTrackerCountsOnlyMoveForward(t *testing.T) {
	tr := newStreamTracker(8)
	k := streamKey{job: 1, id: "s"}
	for _, step := range []struct{ record, want int64 }{
		{10, 10}, {5, 10}, {10, 10}, {11, 11}, {0, 11}, {300, 300},
	} {
		tr.record(k, step.record)
		if got := tr.admitted(k); got != step.want {
			t.Fatalf("after record(%d): admitted %d, want %d", step.record, got, step.want)
		}
	}
	// Stream ids are scoped per job, and an unknown stream reads 0.
	if got := tr.admitted(streamKey{job: 2, id: "s"}); got != 0 {
		t.Fatalf("job 2's stream \"s\" reads job 1's count %d", got)
	}
}

func TestStreamTrackerEvictsInInsertionOrder(t *testing.T) {
	const max = 4
	tr := newStreamTracker(max)
	key := func(i int) streamKey { return streamKey{id: fmt.Sprint(i)} }
	for i := 0; i < max; i++ {
		tr.record(key(i), int64(100+i))
	}
	// Updating a resident stream neither evicts nor refreshes its turn.
	tr.record(key(0), 500)
	for i := 0; i < max; i++ {
		if tr.admitted(key(i)) == 0 {
			t.Fatalf("stream %d evicted below the cap", i)
		}
	}
	// Each newcomer past the cap evicts the oldest insertion — stream 0 first,
	// its late update notwithstanding — and an evicted stream reads 0.
	for i := max; i < 2*max; i++ {
		tr.record(key(i), int64(100+i))
		for j := 0; j <= i; j++ {
			got, evicted := tr.admitted(key(j)), j <= i-max
			if evicted && got != 0 || !evicted && got == 0 {
				t.Fatalf("after inserting stream %d: stream %d reads %d (evicted = %v)", i, j, got, evicted)
			}
		}
	}
	if len(tr.byKey) != max || len(tr.order) != max {
		t.Fatalf("tracker holds %d counts and %d order entries, want %d each", len(tr.byKey), len(tr.order), max)
	}
}

func TestStreamTrackerAcquireSerializes(t *testing.T) {
	tr := newStreamTracker(8)
	k, other := streamKey{id: "held"}, streamKey{id: "free"}
	bg := context.Background()
	if !tr.acquire(bg, k) {
		t.Fatal("acquire of a free key failed")
	}
	if !tr.acquire(bg, other) {
		t.Fatal("a held key blocked a different one")
	}
	// A held key makes the next attempt wait: false when its context dies...
	dead, cancel := context.WithCancel(bg)
	cancel()
	if tr.acquire(dead, k) {
		t.Fatal("acquire of a held key succeeded under a dead context")
	}
	// ...and true once the holder releases.
	got := make(chan bool)
	go func() { got <- tr.acquire(bg, k) }()
	select {
	case <-got:
		t.Fatal("second acquire did not wait for the holder")
	case <-time.After(20 * time.Millisecond):
	}
	tr.release(k)
	if !<-got {
		t.Fatal("acquire after release failed")
	}
	tr.release(k)
	tr.release(other)
	if len(tr.inflight) != 0 {
		t.Fatalf("%d keys still held after every release", len(tr.inflight))
	}
}
