package sim

import (
	"math/rand"
	"sort"
	"testing"

	"hdcps/internal/task"
)

// TestEventQueueOrder drives random interleavings of push and pop, with
// bursts of events on one cycle, against a reference kept sorted by
// (at, seq): the queue must pop exactly the reference's sequence, hand every
// message back intact, and keep its payload slab no larger than the most
// messages ever in flight at once. Some steps go the way Run takes a ready
// or drift event: top leaves it at the root while a handler pushes (bursts
// at exactly that cycle, later events, messages), and then replaceTop
// re-arms it in place or pop retires it.
func TestEventQueueOrder(t *testing.T) {
	type refEvent struct {
		key evKey
		msg Message
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref []refEvent
		var now int64
		inFlight, highWater, sent := 0, 0, 0

		push := func(at int64) {
			seq := q.seq
			core := rng.Intn(64)
			if rng.Intn(2) == 0 {
				kind := evReady
				if rng.Intn(8) == 0 {
					kind = evDrift
				}
				q.push(at, core, kind)
				ref = append(ref, refEvent{key: evKey{at: at, seq: seq, core: uint16(core), kind: kind}})
				return
			}
			msg := Message{From: rng.Intn(64), To: core, Kind: rng.Intn(3), Aux: rng.Int63(),
				Task: task.Task{Node: uint32(rng.Intn(1000)), Prio: rng.Int63n(100), Data: seq}}
			for i := rng.Intn(4); i > 0; i-- {
				msg.Tasks = append(msg.Tasks, task.Task{Node: uint32(i), Prio: int64(seq), Data: seq + uint64(i)})
			}
			q.pushMessage(at, msg)
			ref = append(ref, refEvent{key: evKey{at: at, seq: seq, core: uint16(core), kind: evMessage}, msg: msg})
			sent++
			if inFlight++; inFlight > highWater {
				highWater = inFlight
			}
		}
		sortRef := func() {
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].key.before(&ref[j].key) })
		}
		same := func(what string, got, want evKey) {
			if got.at != want.at || got.seq != want.seq || got.core != want.core || got.kind != want.kind {
				t.Fatalf("seed %d: %s {at %d seq %d core %d kind %d}, reference {at %d seq %d core %d kind %d}",
					seed, what, got.at, got.seq, got.core, got.kind, want.at, want.seq, want.core, want.kind)
			}
		}
		pop := func() {
			sortRef()
			want := ref[0]
			ref = ref[1:]
			got := q.pop()
			same("popped", got, want.key)
			now = got.at
			if got.kind != evMessage {
				return
			}
			msg := q.takeMessage(got.ref)
			inFlight--
			if msg.From != want.msg.From || msg.To != want.msg.To || msg.Kind != want.msg.Kind ||
				msg.Aux != want.msg.Aux || msg.Task != want.msg.Task || len(msg.Tasks) != len(want.msg.Tasks) {
				t.Fatalf("seed %d: message %+v, sent %+v", seed, msg, want.msg)
			}
			for i := range msg.Tasks {
				if msg.Tasks[i] != want.msg.Tasks[i] {
					t.Fatalf("seed %d: message Tasks[%d] = %+v, sent %+v", seed, i, msg.Tasks[i], want.msg.Tasks[i])
				}
			}
			if z := q.msgs[got.ref]; z.Tasks != nil || z.Task != (task.Task{}) || z.Aux != 0 {
				t.Fatalf("seed %d: slot %d not zeroed after delivery: %+v", seed, got.ref, z)
			}
		}

		// inPlace is one ready or drift event as Run handles it.
		inPlace := func() {
			sortRef()
			e := q.top()
			same("top", e, ref[0].key)
			now = e.at
			for i := rng.Intn(6); i > 0; i-- {
				if rng.Intn(3) == 0 {
					for j := 1 + rng.Intn(4); j > 0; j-- {
						push(now) // a burst on the handler's own cycle
					}
				} else {
					push(now + rng.Int63n(50))
				}
			}
			same("top after the handler's pushes", q.top(), e)
			if rng.Intn(3) == 0 {
				pop() // the core parks
				return
			}
			at, core, kind := now+rng.Int63n(50), int(e.core), e.kind
			ref[0] = refEvent{key: evKey{at: at, seq: q.seq, core: e.core, kind: kind}}
			q.replaceTop(at, core, kind)
		}

		for step := 0; step < 4000; step++ {
			switch {
			case q.len() > 0 && q.top().kind != evMessage && rng.Intn(4) == 0:
				inPlace()
			case q.len() == 0 || rng.Intn(5) < 2:
				push(now + rng.Int63n(50))
			case rng.Intn(10) == 0:
				at := now + rng.Int63n(5) // a burst on one cycle: seq alone orders it
				for i := 2 + rng.Intn(12); i > 0; i-- {
					push(at)
				}
			default:
				pop()
			}
			if q.len() != len(ref) {
				t.Fatalf("seed %d: queue holds %d events, reference %d", seed, q.len(), len(ref))
			}
		}
		for q.len() > 0 {
			pop()
		}
		if sent <= highWater {
			t.Fatalf("seed %d: %d messages never exceeded the %d in flight; the slab bound was not exercised", seed, sent, highWater)
		}
		if len(q.msgs) > highWater {
			t.Errorf("seed %d: slab grew to %d slots for %d messages, at most %d in flight", seed, len(q.msgs), sent, highWater)
		}
		if len(q.free) != len(q.msgs) {
			t.Errorf("seed %d: %d of %d slots free after the queue drained", seed, len(q.free), len(q.msgs))
		}
	}
}

var sinkKey evKey

// BenchmarkEventQueue holds the queue at a steady depth and measures one
// event's turn; half the events carry a message. The depth cases pop the
// event and push its successor; rearm takes the turn the way Run does: a
// message is popped and its payload sent on, a ready event is re-armed in
// place with replaceTop, so the mix stays half and half.
func BenchmarkEventQueue(b *testing.B) {
	for _, bc := range []struct {
		name  string
		depth int
		rearm bool
	}{{"depth64", 64, false}, {"depth4096", 4096, false}, {"rearm", 64, true}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var q eventQueue
			var gaps [1024]int64
			for i := range gaps {
				gaps[i] = 1 + rng.Int63n(2000)
			}
			tasks := make([]task.Task, 8)
			push := func(i int, at int64) {
				if i&1 == 0 {
					q.push(at, i&63, evReady)
				} else {
					q.pushMessage(at, Message{To: i & 63, Tasks: tasks})
				}
			}
			for i := 0; i < bc.depth; i++ {
				push(i, gaps[i%len(gaps)])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := q.top()
				next := k.at + gaps[i%len(gaps)]
				switch {
				case !bc.rearm:
					q.pop()
					if k.kind == evMessage {
						q.takeMessage(k.ref)
					}
					push(i, next)
				case k.kind == evMessage:
					q.pop()
					q.pushMessage(next, q.takeMessage(k.ref))
				default:
					q.replaceTop(next, int(k.core), k.kind)
				}
				sinkKey = k
			}
		})
	}
}
