package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	stdruntime "runtime"
	"strconv"
	"strings"
	"time"
)

const resultSchema = "hdcps-benchmark/v1"

// resultDoc is benchmark/out/result.json: one full run of all five
// workloads, both passes, with what it ran on.
type resultDoc struct {
	Schema    string           `json:"schema"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Host      hostInfo         `json:"host"`
	Workloads []workloadResult `json:"workloads"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

type workloadResult struct {
	Name     string    `json:"name"`
	EndToEnd runResult `json:"end_to_end"` // the untraced pass
	PerLayer runResult `json:"per_layer"`  // the traced pass
}

// commit names the source the run measured: what git says about the working
// directory, or "unknown" outside a repository.
func commit() string {
	out, err := osexec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// child runs one pass of one workload in a fresh process of this binary,
// copies what it prints and returns its result line.
func child(self, workload string, seed uint64, seconds float64, trace int, smoke bool, outDir string) (runResult, error) {
	args := []string{
		"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir,
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := osexec.Command(self, args...)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	for sc := bufio.NewScanner(&buf); sc.Scan(); {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res runResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s -trace %d: %w", workload, trace, runErr)
		}
		return res, fmt.Errorf("%s -trace %d: no result line: %w", workload, trace, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s -trace %d: %w", workload, trace, runErr)
	}
	return res, nil
}

// runAll runs the five workloads one after another, each pass in its own
// child process, and writes result.json. It returns the exit code: non-zero
// when any pass failed a check.
func runAll(seed uint64, seconds float64, smoke bool, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	nproc := stdruntime.NumCPU()
	doc := resultDoc{
		Schema: resultSchema, Seed: seed, Seconds: seconds,
		Host: hostInfo{
			NProc: nproc, GoMaxProcs: min(nproc, 4), Workers: min(nproc, 4),
			GoVersion: stdruntime.Version(), Commit: commit(),
		},
	}
	start := time.Now()
	code := 0
	for _, name := range workloadNames {
		wr := workloadResult{Name: name}
		for trace, into := range []*runResult{&wr.EndToEnd, &wr.PerLayer} {
			res, err := child(self, name, seed, seconds, trace, smoke, outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				code = 1
			}
			*into = res
		}
		doc.Workloads = append(doc.Workloads, wr)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "result.json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: writing result.json: %v\n", err)
		return 1
	}
	fmt.Printf("# all five workloads, both passes: %.0f s; %s written; exit %d\n",
		time.Since(start).Seconds(), filepath.Join(outDir, "result.json"), code)
	return code
}
