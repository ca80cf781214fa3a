package runtime

import (
	"sync"
	"testing"
	"time"

	"hdcps/internal/graph"
	"hdcps/internal/obs"
	"hdcps/internal/task"
)

func TestTransportBatchingAndFlush(t *testing.T) {
	tr := newRingTransport(2, 8, 4, 4096, ownRows(2), nil, nil)
	for i := 0; i < 3; i++ {
		tr.Send(0, 1, task.Task{Node: graph.NodeID(i)})
	}
	if got := tr.Pending(0); got != 3 {
		t.Fatalf("pending %d, want 3", got)
	}
	if got := tr.Recv(1, nil); len(got) != 0 {
		t.Fatalf("partial batch delivered early: %v", got)
	}
	// The 4th send fills the batch and auto-ships it.
	tr.Send(0, 1, task.Task{Node: 3})
	if got := tr.Pending(0); got != 0 {
		t.Fatalf("pending %d after batch ship, want 0", got)
	}
	got := tr.Recv(1, nil)
	if len(got) != 4 {
		t.Fatalf("received %d tasks, want 4", len(got))
	}
	for i, tk := range got {
		if tk.Node != graph.NodeID(i) {
			t.Fatalf("task %d out of order: %v", i, tk.Node)
		}
	}

	// Partial batches ship on Flush.
	tr.Send(1, 0, task.Task{Node: 9})
	tr.Flush(1)
	if got := tr.Pending(1); got != 0 {
		t.Fatalf("pending %d after flush, want 0", got)
	}
	if got := tr.Recv(0, nil); len(got) != 1 || got[0].Node != 9 {
		t.Fatalf("flush delivery wrong: %v", got)
	}
}

func TestTransportOverflowSpill(t *testing.T) {
	tr := newRingTransport(2, 2, 64, 4096, ownRows(2), nil, nil) // 2-slot ring
	ts := make([]task.Task, 10)
	for i := range ts {
		ts[i].Node = graph.NodeID(i)
	}
	tr.Inject(1, ts)
	if tr.eps[1].counters[obs.COverflowSpills].Load() == 0 {
		t.Fatal("10 tasks through a 2-slot ring must spill, counted on the destination's row")
	}
	got := tr.Recv(1, nil)
	if len(got) != 10 {
		t.Fatalf("received %d tasks, want 10 (ring + overflow)", len(got))
	}
	seen := map[graph.NodeID]bool{}
	for _, tk := range got {
		seen[tk.Node] = true
	}
	if len(seen) != 10 {
		t.Fatalf("duplicate or lost tasks: %d unique of 10", len(seen))
	}
}

// Concurrent injectors racing the owning drainer: no task may be lost or
// duplicated (run under -race for the memory-model half of the claim).
func TestTransportConcurrentInject(t *testing.T) {
	tr := newRingTransport(2, 4, 8, 4096, ownRows(2), nil, nil)
	const senders = 4
	const perSender = 500
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				tr.Inject(1, []task.Task{{Node: graph.NodeID(s*perSender + i)}})
			}
		}(s)
	}
	seen := map[graph.NodeID]bool{}
	deadline := time.Now().Add(30 * time.Second)
	var buf []task.Task
	for len(seen) < senders*perSender && time.Now().Before(deadline) {
		buf = tr.Recv(1, buf[:0])
		for _, tk := range buf {
			if seen[tk.Node] {
				t.Fatalf("task %v delivered twice", tk.Node)
			}
			seen[tk.Node] = true
		}
	}
	wg.Wait()
	if len(seen) != senders*perSender {
		t.Fatalf("received %d unique tasks, want %d", len(seen), senders*perSender)
	}
}

// ownRows gives n workers a counter row each, as an engine's workers hold
// them.
func ownRows(n int) []*obs.Row {
	rows := make([]*obs.Row, n)
	for i := range rows {
		rows[i] = new(obs.Row)
	}
	return rows
}
