package chaos

import (
	"fmt"

	"hdcps/internal/graph"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// FaultyConfig selects which tasks a Faulty wrapper poisons. Selection is by
// node ID, so the fault set is deterministic and independent of scheduling.
type FaultyConfig struct {
	// PanicEvery poisons tasks whose Node is a multiple of this value
	// (0 disables injection entirely). A poisoned task panics every time it
	// runs, and the engine quarantines it on that first panic.
	PanicEvery int
}

// Faulty wraps a workload with deterministic handler-panic injection, the
// workload-side half of a chaos run (the fault hook perturbs transfer; this
// perturbs execution).
type Faulty struct {
	inner workload.Workload
	cfg   FaultyConfig
}

// NewFaulty wraps w with cfg's panic injection.
func NewFaulty(w workload.Workload, cfg FaultyConfig) *Faulty {
	return &Faulty{inner: w, cfg: cfg}
}

func (f *Faulty) Name() string              { return f.inner.Name() }
func (f *Faulty) Graph() *graph.CSR         { return f.inner.Graph() }
func (f *Faulty) InitialTasks() []task.Task { return f.inner.InitialTasks() }
func (f *Faulty) Verify() error             { return f.inner.Verify() }

func (f *Faulty) Reset() { f.inner.Reset() }

func (f *Faulty) Clone() workload.Workload {
	return NewFaulty(f.inner.Clone(), f.cfg)
}

func (f *Faulty) Process(t task.Task, emit func(task.Task)) int {
	if f.cfg.PanicEvery > 0 && int(t.Node)%f.cfg.PanicEvery == 0 {
		panic(fmt.Sprintf("chaos: injected fault (node %d)", t.Node))
	}
	return f.inner.Process(t, emit)
}
