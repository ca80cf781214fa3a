// Package exp is the experiment harness: one registered experiment per
// table and figure in the paper's evaluation (Table I, Table II, Figures
// 3-15), plus extensions. Each simulator figure is a declaration — a versus
// table (one row per workload-input pair, columns against a baseline cell)
// or a sweep (one row per variant against a per-pair baseline) — and both
// drivers send every scheduler run through one cell runner that verifies
// the answer (grid.go). Fig. 10 and the native experiments are wall-clock
// and keep their own bodies. The registry normalizes the Options and builds
// the input set once per run. DESIGN.md carries the experiment index;
// EXPERIMENTS.md records paper-vs-measured values.
package exp

import (
	"fmt"
	"io"
	"math"
	stdruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// Options control an experiment run.
type Options struct {
	// Scale selects input sizes: "tiny" (CI/benches), "small" (default),
	// or "large" (longer, closer separation to the paper's trends).
	Scale string
	// Seed drives every random choice; same seed, same numbers.
	Seed uint64
	// Cores overrides the software-mode core count (default 40, the Xeon).
	Cores int
	// Par bounds the worker pool that evaluates an experiment's
	// scheduler×workload grid (default GOMAXPROCS, min 1). Cells are
	// deterministic and independent, so any Par produces bit-identical
	// Results; Par only changes wall time.
	Par int
	// TracePath, when set, makes trace-producing experiments (currently
	// drift-timeline) write their full JSONL observability trace there
	// ("-" for stdout). Other experiments ignore it.
	TracePath string
}

func (o Options) normalized() Options {
	if o.Scale == "" {
		o.Scale = "small"
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Cores == 0 {
		o.Cores = 40
	}
	if o.Par <= 0 {
		o.Par = stdruntime.GOMAXPROCS(0)
	}
	return o
}

// Row is one labeled row of an experiment's output (typically a
// workload-input pair, or a parameter value for sweeps).
type Row struct {
	Label  string
	Values map[string]float64
}

// Result is an experiment's structured output.
type Result struct {
	ID     string
	Title  string
	Series []string // column order
	Rows   []Row
	Notes  []string
}

// Experiment is a registered table/figure reproduction.
type Experiment struct {
	Title string
	Run   func(Options) (Result, error)
}

var registry = map[string]Experiment{}
var order []string

// register adds an experiment whose body sees normalized Options and the
// input set they select.
func register(id, title string, body func(Options, *inputSet) (Result, error)) {
	registry[id] = Experiment{title, func(o Options) (Result, error) {
		o = o.normalized()
		set, err := inputs(o)
		if err != nil {
			return Result{}, err
		}
		return body(o, set)
	}}
	order = append(order, id)
}

// Get returns the experiment with the given ID (e.g. "fig3", "table2").
func Get(id string) (Experiment, bool) {
	e, ok := registry[strings.ToLower(id)]
	return e, ok
}

// IDs returns the registered experiment IDs in paper order.
func IDs() []string {
	return append([]string(nil), order...)
}

// Format renders r as an aligned text table.
func (r Result) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Rows) > 0 {
		fmt.Fprintf(w, "%-22s", "")
		for _, s := range r.Series {
			fmt.Fprintf(w, " %12s", s)
		}
		fmt.Fprintln(w)
		for _, row := range r.Rows {
			fmt.Fprintf(w, "%-22s", row.Label)
			for _, s := range r.Series {
				if v, ok := row.Values[s]; ok {
					fmt.Fprintf(w, " %12.3f", v)
				} else {
					fmt.Fprintf(w, " %12s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// FormatCSV renders r as CSV (label column first, then the series).
func (r Result) FormatCSV(w io.Writer) {
	fmt.Fprintf(w, "label")
	for _, s := range r.Series {
		fmt.Fprintf(w, ",%s", s)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s", row.Label)
		for _, s := range r.Series {
			if v, ok := row.Values[s]; ok {
				fmt.Fprintf(w, ",%g", v)
			} else {
				fmt.Fprintf(w, ",")
			}
		}
		fmt.Fprintln(w)
	}
}

// parallelMap evaluates f(0..n-1) on a bounded pool of `workers` goroutines
// and returns the results in index order. Cells must be independent and
// deterministic; because each result lands at its own index, the output is
// bit-identical to a sequential loop regardless of pool size (the property
// TestParallelDriverBitIdentical pins down). On error it returns the
// completed results alongside the error with the smallest index — the same
// error a sequential loop would surface first.
func parallelMap[T any](n, workers int, f func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			var err error
			if out[i], err = f(i); err != nil {
				return out, err
			}
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// geomeanRow appends a geometric-mean row over the existing rows.
func geomeanRow(res *Result) {
	g := Row{Label: "geomean", Values: map[string]float64{}}
	for _, s := range res.Series {
		var logs float64
		n := 0
		for _, row := range res.Rows {
			if v, ok := row.Values[s]; ok && v > 0 {
				logs += math.Log(v)
				n++
			}
		}
		if n > 0 {
			g.Values[s] = math.Exp(logs / float64(n))
		}
	}
	res.Rows = append(res.Rows, g)
}
