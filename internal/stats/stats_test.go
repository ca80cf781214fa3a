package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBreakdownTotalAdd(t *testing.T) {
	a := Breakdown{Enqueue: 1, Dequeue: 2, Compute: 3, Comm: 4}
	if a.Total() != 10 {
		t.Fatalf("Total = %d", a.Total())
	}
	b := Breakdown{Enqueue: 10, Dequeue: 20, Compute: 30, Comm: 40}
	a.Add(b)
	if a.Total() != 110 || a.Enqueue != 11 || a.Comm != 44 {
		t.Fatalf("Add = %+v", a)
	}
}

func TestBreakdownNormalized(t *testing.T) {
	b := Breakdown{Enqueue: 10, Dequeue: 20, Compute: 30, Comm: 40}
	n := b.Normalized(200)
	want := [4]float64{0.05, 0.10, 0.15, 0.20}
	if n != want {
		t.Fatalf("Normalized = %v, want %v", n, want)
	}
	if b.Normalized(0) != ([4]float64{}) {
		t.Fatal("zero base should return zeros")
	}
}

func TestBreakdownString(t *testing.T) {
	b := Breakdown{Enqueue: 25, Dequeue: 25, Compute: 25, Comm: 25}
	s := b.String()
	if !strings.Contains(s, "25%") {
		t.Fatalf("String = %q", s)
	}
	if (Breakdown{}).String() != "breakdown{empty}" {
		t.Fatal("empty breakdown string wrong")
	}
}

func TestWorkEfficiency(t *testing.T) {
	r := Run{TasksProcessed: 200, SeqTasks: 100}
	if r.WorkEfficiency() != 0.5 {
		t.Fatalf("we = %v", r.WorkEfficiency())
	}
	if (Run{}).WorkEfficiency() != 0 {
		t.Fatal("zero-task run should have we 0")
	}
}

func TestMeanGeomean(t *testing.T) {
	if Mean(nil) != 0 || Geomean(nil) != 0 {
		t.Fatal("empty aggregates should be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatalf("mean = %v", Mean([]float64{1, 2, 3}))
	}
	g := Geomean([]float64{1, 4})
	if math.Abs(g-2) > 1e-12 {
		t.Fatalf("geomean = %v, want 2", g)
	}
	// Non-positive entries are ignored.
	g = Geomean([]float64{0, -3, 8, 2})
	if math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean = %v, want 4", g)
	}
}

func TestGeomeanBounds(t *testing.T) {
	// Property: min <= geomean <= max for positive inputs.
	err := quick.Check(func(raw []uint16) bool {
		xs := make([]float64, 0, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			x := float64(r) + 1
			xs = append(xs, x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := Geomean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestRunString(t *testing.T) {
	r := Run{
		Scheduler: "hdcps", Workload: "sssp", Input: "road", Cores: 40,
		CompletionTime: 123, TasksProcessed: 10, SeqTasks: 10,
		DriftTrace: []float64{2, 4},
	}
	s := r.String()
	for _, want := range []string{"hdcps", "sssp", "road", "drift=3.0"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String = %q missing %q", s, want)
		}
	}
}
