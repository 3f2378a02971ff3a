// Command perfbench is the repository's benchmark. One invocation runs
// one workload: it generates the workload's .tns inputs from a seed,
// starts a child process that sets the workload up several times and
// then runs its operations for a fixed time, checks the outputs, and
// prints one JSON result as the last line of standard output.
//
//	bash perfbench/run.sh --workload nell2-mem --seed 1 --seconds 34 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (set-up
// time, op latency p50/p90, ops per second, peak RSS of the child).
// With --trace 1 the measured time is split between an untraced and a
// traced child, and the result carries the per-layer metrics derived
// from the traced child's spans and from the counters the program
// exports, plus the tracing overhead.
//
// The workloads, their parameters and why each was chosen are in
// workloads.go; the metrics and their units in metrics.go.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// childEnv carries the child's job description; its presence is what
// makes a process the measured child rather than the orchestrator.
const childEnv = "PERFBENCH_CHILD"

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout))
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the command-line settings of one benchmark run.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Scale    string
	WorkDir  string
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.Workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.Seed, "seed", 1, "input generator seed")
	fs.Float64Var(&o.Seconds, "seconds", 34, "measured time of the run")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&o.Scale, "scale", "full", "input scale: full, or tiny for the self-test")
	fs.StringVar(&o.WorkDir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for generated inputs, traces and records")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, err := lookupWorkload(o.Workload); err != nil {
		return o, err
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.Trace = trace == 1
	if o.Seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.Seconds)
	}
	if _, err := scaleParams(o.Scale); err != nil {
		return o, err
	}
	return o, nil
}

// result is the final line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the orchestrator: generate inputs, run the measured child (or
// the untraced and traced pair), print the record and the result.
func run(args []string, stdout io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	w, _ := lookupWorkload(o.Workload)
	p, _ := scaleParams(o.Scale)

	runDir := filepath.Join(o.WorkDir, fmt.Sprintf("%s-seed%d", o.Workload, o.Seed))
	if err := os.RemoveAll(runDir); err != nil {
		return err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	t0 := time.Now()
	in, err := w.generate(runDir, o.Seed, p)
	if err != nil {
		return fmt.Errorf("generating %s inputs: %w", o.Workload, err)
	}
	genS := time.Since(t0).Seconds()

	spec := childSpec{
		Workload: o.Workload,
		Seed:     o.Seed,
		Seconds:  o.Seconds,
		Scale:    o.Scale,
		Dir:      runDir,
		Inputs:   in,
	}
	var res result
	var runs []childRun
	if !o.Trace {
		cr, err := runChild(spec)
		if err != nil {
			return err
		}
		runs = append(runs, cr)
		res = cr.result(endToEnd)
	} else {
		spec.Seconds = o.Seconds / 2
		plain, err := runChild(spec)
		if err != nil {
			return err
		}
		spec.Traced = true
		spec.TracePath = filepath.Join(o.WorkDir, "traces", fmt.Sprintf("%s-seed%d.json", o.Workload, o.Seed))
		traced, err := runChild(spec)
		if err != nil {
			return err
		}
		runs = append(runs, plain, traced)
		res = traced.result(perLayer)
		res.Correct = res.Correct && plain.Correct
		res.Attempted += plain.Attempted
		res.Failed += plain.Failed
		overhead := traced.Metrics["op_p50_ms"]/plain.Metrics["op_p50_ms"] - 1
		res.Metrics["trace.overhead_frac"] = metricValue{overhead, unitOf("trace.overhead_frac")}
	}

	rec := record{
		Host:     hostFingerprint(),
		Workload: o.Workload,
		Why:      w.why,
		Seed:     o.Seed,
		Seconds:  o.Seconds,
		Traced:   o.Trace,
		Scale:    o.Scale,
		Params:   w.params(p),
		Inputs:   in.IDs,
		GenS:     genS,
		Runs:     runs,
		Result:   res,
	}
	recLine, err := json.Marshal(map[string]record{"record": rec})
	if err != nil {
		return err
	}
	recPath := filepath.Join(o.WorkDir, "records", fmt.Sprintf("%s-seed%d-trace%d.json", o.Workload, o.Seed, btoi(o.Trace)))
	if err := writeFile(recPath, append(recLine, '\n')); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", recLine, line)
	return err
}

// childRun is what the orchestrator keeps of one child process.
type childRun struct {
	childResult
	Traced   bool    `json:"traced"`
	MaxRSSMB float64 `json:"max_rss_mb"` // ru_maxrss, for reference
	WallS    float64 `json:"wall_s"`
}

// result projects the child's metrics onto the names in list.
func (c childRun) result(list []metricDef) result {
	r := result{Correct: c.Correct, Attempted: c.Attempted, Failed: c.Failed, Metrics: map[string]metricValue{}}
	for _, m := range list {
		if v, ok := c.Metrics[m.Name]; ok {
			r.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	}
	return r
}

// runChild re-executes this binary as the measured child and waits for
// it. The inputs were written before it started, so its memory is the
// measured program's, not the generator's.
func runChild(spec childSpec) (childRun, error) {
	js, err := json.Marshal(spec)
	if err != nil {
		return childRun{}, err
	}
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(js))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return childRun{}, fmt.Errorf("%s child: %w", spec.Workload, err)
	}
	cr := childRun{Traced: spec.Traced, WallS: time.Since(start).Seconds()}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cr.childResult); err != nil {
		return childRun{}, fmt.Errorf("%s child printed no result: %w", spec.Workload, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return childRun{}, errors.New("child resource usage unavailable")
	}
	cr.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports ru_maxrss in KiB
	return cr, nil
}

// childMain runs one measured child and prints its childResult.
func childMain(specJSON string, stdout io.Writer) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child: bad spec:", err)
		return 2
	}
	res, err := runWorkload(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", spec.Workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
