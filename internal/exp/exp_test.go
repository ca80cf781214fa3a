package exp

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"hdcps/internal/sched"
	"hdcps/internal/sim"
	"hdcps/internal/stats"
	"hdcps/internal/workload"
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

// goldenTiny reads testdata/figures_tiny.golden, the Format output of every
// simulator-only experiment at tinyOpts, keyed by experiment ID. It was
// recorded before the figures became declarations and is never regenerated
// to make a change pass: a simulator figure's numbers do not move unless the
// simulator does.
func goldenTiny(t *testing.T) map[string]string {
	b, err := os.ReadFile("testdata/figures_tiny.golden")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, sec := range strings.SplitAfter(string(b), "\n== ") {
		if !strings.HasPrefix(sec, "== ") {
			sec = "== " + sec
		}
		sec = strings.TrimSuffix(sec, "== ")
		out[sec[3:strings.Index(sec, ":")]] = sec
	}
	return out
}

// TestEveryFigureRunsAtTinyScale executes the full figure suite at tiny
// scale — the end-to-end proof that every experiment regenerates without
// error and with verified workload results — and holds every simulator-only
// experiment to its golden output.
func TestEveryFigureRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure suite is slow; run without -short")
	}
	golden := goldenTiny(t)
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
			if want, ok := golden[id]; ok {
				var got bytes.Buffer
				res.Format(&got)
				if got.String() != want {
					t.Errorf("%s differs from testdata/figures_tiny.golden:\ngot:\n%s\nwant:\n%s", id, got.String(), want)
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
// design (its native column is wall-clock), so the suite here covers each
// driver and the oracle path: a versus table (fig3), a sweep (fig4), and
// fig12, whose oracle column builds its scheduler per pair.
func TestParallelDriverBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each experiment twice; slow")
	}
	for _, id := range []string{"fig3", "fig4", "fig12"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, _ := Get(id)
			seq := tinyOpts()
			seq.Par = 1
			par := tinyOpts()
			par.Par = 4
			// The two runs overlap: the sequential one leaves a CPU idle,
			// and the shared input set must hold up under both.
			var a Result
			var errA error
			done := make(chan struct{})
			go func() {
				defer close(done)
				a, errA = e.Run(seq)
			}()
			b, err := e.Run(par)
			<-done
			if errA != nil {
				t.Fatalf("sequential run: %v", errA)
			}
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
	n1, err := a.seqTasks(Pair{"sssp", "road"})
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := a.seqTasks(Pair{"sssp", "road"})
	if n1 != n2 || n1 <= 0 {
		t.Fatalf("seq task caching broken: %d vs %d", n1, n2)
	}
}

// TestSeqTasksCrossSeed: fig7 and fig14 run seeds Seed+1 and Seed+2 on the
// graphs of Seed, which must not leave sequential task counts behind for
// those seeds' own graphs. motivation (whose we-* columns divide by them) at
// seed 8 after fig7 at seed 7 must print what it prints in a fresh process.
func TestSeqTasksCrossSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two figures and a second process")
	}
	motivation := func() string {
		o := tinyOpts()
		o.Seed = 8
		e, _ := Get("motivation")
		res, err := e.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		res.Format(&b)
		return b.String()
	}
	if path := os.Getenv("EXP_FRESH_OUT"); path != "" {
		if err := os.WriteFile(path, []byte(motivation()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	out := t.TempDir() + "/fresh.txt"
	var stderr bytes.Buffer
	cmd := exec.Command(os.Args[0], "-test.run=^TestSeqTasksCrossSeed$")
	cmd.Env = append(os.Environ(), "EXP_FRESH_OUT="+out)
	cmd.Stdout, cmd.Stderr = &stderr, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	e, _ := Get("fig7")
	_, err := e.Run(tinyOpts())
	got := motivation()
	if werr := cmd.Wait(); werr != nil {
		t.Fatalf("fresh process: %v\n%s", werr, stderr.String())
	}
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(fresh) {
		t.Fatalf("motivation at seed 8 after fig7 at seed 7:\n%s\nin a fresh process:\n%s", got, fresh)
	}
}

// broken hands back its workload untouched, so the workload fails Verify.
type broken struct{ name string }

func (b broken) Name() string                                      { return b.name }
func (broken) Run(workload.Workload, sim.Config, uint64) stats.Run { return stats.Run{} }

// TestFailedCellFailsExperiment: a cell whose workload cannot be built or
// fails Verify fails its experiment with an error naming the cell, on both
// drivers and on fig12's oracle path, whose candidate runs used to go
// unchecked.
func TestFailedCellFailsExperiment(t *testing.T) {
	o := tinyOpts().normalized()
	set, err := inputs(o)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultSW(o.Cores)
	road, mars := []Pair{{"bfs", "road"}}, []Pair{{"bfs", "mars"}}
	pmod := cell{s: sched.PMOD(), cfg: cfg}
	brokenOracle := func(run runner) (sched.Scheduler, error) {
		return tdfOracle(func(s sched.Scheduler) (stats.Run, error) { return run(broken{s.Name()}) })
	}
	for _, tc := range []struct {
		run  func(Options, *inputSet) (Result, error)
		want string
	}{
		{versus{pairs: road, base: pmod, cfg: cfg, cols: []col{{s: broken{"broken"}, vals: vals{"x": slower}}}}.run,
			"exp: broken on bfs-road produced wrong result"},
		{sweep{pairs: mars, base: pmod, value: slower, rows: []variant{{"v", []cell{pmod}}}}.run,
			"exp: pmod on bfs-mars: exp: unknown input"},
		{versus{pairs: road, base: pmod, cfg: cfg, cols: []col{{build: brokenOracle, vals: vals{"x": slower}}}}.run,
			"exp: oracle-eval on bfs-road produced wrong result"},
		{func(o Options, set *inputSet) (Result, error) {
			_, err := tdfOracle(func(s sched.Scheduler) (stats.Run, error) { return set.run(s, mars[0], cfg, o.Seed) })
			return Result{}, err
		}, "exp: oracle-eval on bfs-mars: exp: unknown input"},
	} {
		if _, err := tc.run(o, set); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("got error %v, want %q...", err, tc.want)
		}
	}
}
