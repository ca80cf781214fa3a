package exp

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func tinyOpts() Options { return Options{Scale: "tiny", Seed: 7, Cores: 8} }

func errAt(i int) error { return fmt.Errorf("cell %d failed", i) }

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"motivation", "drift-timeline", "queue-sweep", "fairness-sweep"}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("IDs()[%d] = %s, want %s", i, ids[i], id)
		}
		if _, ok := Get(id); !ok {
			t.Fatalf("Get(%q) missing", id)
		}
	}
	if _, ok := Get("fig99"); ok {
		t.Fatal("unknown experiment should be absent")
	}
}

func TestScaleValidation(t *testing.T) {
	if _, err := inputs(Options{Scale: "bogus", Seed: 1}); err == nil {
		t.Fatal("bogus scale should error")
	}
}

func TestTables(t *testing.T) {
	for _, id := range []string{"table1", "table2"} {
		e, _ := Get(id)
		res, err := e.Run(tinyOpts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no rows", id)
		}
		var buf bytes.Buffer
		res.Format(&buf)
		if !strings.Contains(buf.String(), res.Title) {
			t.Fatalf("%s: Format missing title", id)
		}
	}
}

// TestEveryFigureRunsAtTinyScale executes the full figure suite at tiny
// scale — the end-to-end proof that every experiment regenerates without
// error and with verified workload results.
func TestEveryFigureRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure suite is slow; run without -short")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			e, _ := Get(id)
			res, err := e.Run(tinyOpts())
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(res.Rows) == 0 {
				t.Fatalf("%s: no rows", id)
			}
			for _, row := range res.Rows {
				for s, v := range row.Values {
					if v < 0 {
						t.Errorf("%s %s/%s: negative value %v", id, row.Label, s, v)
					}
				}
			}
		})
	}
}

func TestFig3Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Shapes hold at the paper's design point: 40 cores with inputs big
	// enough that the task frontier does not starve pull schedulers.
	e, _ := Get("fig3")
	res, err := e.Run(Options{Scale: "small", Seed: 42, Cores: 40})
	if err != nil {
		t.Fatal(err)
	}
	gm := res.Rows[len(res.Rows)-1] // geomean row
	if gm.Label != "geomean" {
		t.Fatalf("last row is %q", gm.Label)
	}
	// Headline shape: RELD slower than PMOD (>1), HD-CPS:SW faster (<1).
	if gm.Values["reld"] <= 1.0 {
		t.Errorf("RELD geomean %v, expected > 1 (slower than PMOD)", gm.Values["reld"])
	}
	if gm.Values["hdcps-sw"] >= 1.0 {
		t.Errorf("HD-CPS:SW geomean %v, expected < 1 (faster than PMOD)", gm.Values["hdcps-sw"])
	}
	if gm.Values["hdcps-sw"] >= gm.Values["reld"] {
		t.Errorf("HD-CPS:SW (%v) not better than RELD (%v)", gm.Values["hdcps-sw"], gm.Values["reld"])
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	e, _ := Get("fig6")
	res, err := e.Run(Options{Scale: "small", Seed: 42, Cores: 40})
	if err != nil {
		t.Fatal(err)
	}
	gm := res.Rows[len(res.Rows)-1]
	if gm.Values["hrq+hpq"] >= 1.0 {
		t.Errorf("hRQ+hPQ geomean %v, expected < 1 (faster than SW)", gm.Values["hrq+hpq"])
	}
	if gm.Values["hrq+hpq"] > gm.Values["hrq"] {
		t.Errorf("hRQ+hPQ (%v) not at least as good as hRQ alone (%v)",
			gm.Values["hrq+hpq"], gm.Values["hrq"])
	}
}

// TestParallelDriverBitIdentical pins the parallel grid driver's contract:
// any Par produces exactly the Result a sequential run produces — same rows,
// same labels, same float bits. Experiments whose cells are deterministic
// simulator runs must not observe the pool size. fig10 is excluded by
// design (its native column is wall-clock), so the suite here covers the
// representative shapes: pairRows (fig3), sweep-after-base (fig15), and a
// thread sweep (fig4).
func TestParallelDriverBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each experiment twice; slow")
	}
	for _, id := range []string{"fig3", "fig4", "fig15"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, _ := Get(id)
			seq := tinyOpts()
			seq.Par = 1
			par := tinyOpts()
			par.Par = 4
			a, err := e.Run(seq)
			if err != nil {
				t.Fatalf("sequential run: %v", err)
			}
			b, err := e.Run(par)
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("Par=1 and Par=4 diverged:\nseq: %+v\npar: %+v", a, b)
			}
		})
	}
}

func TestParallelMap(t *testing.T) {
	square := func(i int) (int, error) { return i * i, nil }
	for _, workers := range []int{1, 3, 8} {
		got, err := parallelMap(5, workers, square)
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{0, 1, 4, 9, 16}; !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: got %v want %v", workers, got, want)
		}
	}
	// Error surfacing: the smallest-index error wins, matching a sequential
	// loop's first failure.
	boom := func(i int) (int, error) {
		if i%2 == 1 {
			return 0, errAt(i)
		}
		return i, nil
	}
	_, err := parallelMap(6, 4, boom)
	if err == nil || err.Error() != "cell 1 failed" {
		t.Fatalf("got %v, want cell 1 failure", err)
	}
	if _, err := parallelMap(0, 4, square); err != nil {
		t.Fatalf("empty map: %v", err)
	}
}

func TestInputCaching(t *testing.T) {
	o := tinyOpts().normalized()
	a, err := inputs(o)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := inputs(o)
	if a != b {
		t.Fatal("input set not cached")
	}
	n1, err := a.seqTasks(o, Pair{"sssp", "road"})
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := a.seqTasks(o, Pair{"sssp", "road"})
	if n1 != n2 || n1 <= 0 {
		t.Fatalf("seq task caching broken: %d vs %d", n1, n2)
	}
}
