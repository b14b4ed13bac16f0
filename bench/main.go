// Command faultbench is faultexp's end-to-end and per-layer benchmark.
// It drives the sweep engine through its public Go API on four
// workloads — plain cells, coupled rate groups, trial blocks, and a
// loopback coordinator with two cached workers — timing what a user
// sees (cells/s, time to first record, CPU per cell, peak RSS, set-up
// time) and checking every output. A separate traced pass (-trace 1)
// replays the same work call by call and reports per-layer metrics.
//
// Run it from the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	                  [-scale full|smoke] [-out results.json] [-spans spans.jsonl]
//	bash bench/run.sh compare A.json B.json
//
// Each workload runs in a child process of its own, so the peak RSS it
// reports is that workload's. With -workload, the last line of standard
// output is one JSON object: correct, attempted, failed, and the metrics
// (end-to-end with -trace 0, per-layer with -trace 1). The exit status
// is non-zero when any correctness check fails.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	_ "faultexp/internal/experiments" // registers the measures
)

// runConfig is one run's settings, shared by parent and child.
type runConfig struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	Scale   string
	Spans   string
}

func (c runConfig) smoke() bool { return c.Scale == "smoke" }

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(cmdCompare(os.Args[2:]))
	}
	os.Exit(cmdRun(os.Args[1:]))
}

func cmdCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: faultbench compare A.json B.json")
		return 2
	}
	a, err := readResults(args[0])
	if err == nil {
		var b *results
		if b, err = readResults(args[1]); err == nil {
			err = compare(os.Stdout, a, b)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	return 0
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("faultbench", flag.ContinueOnError)
	var cfg runConfig
	name := fs.String("workload", "", "run only this workload (default: all)")
	fs.Uint64Var(&cfg.Seed, "seed", 7, "grid seed every workload's specs are generated from")
	fs.Float64Var(&cfg.Seconds, "seconds", 30, "time budget for each workload's timed passes and set-ups (after one warm-up pass)")
	trace := fs.Int("trace", 0, "0: time the end-to-end metrics; 1: run the traced pass and report per-layer metrics")
	fs.StringVar(&cfg.Scale, "scale", "full", "workload size: full, or smoke (tiny grids, one timed pass)")
	out := fs.String("out", "", "write the machine stamp and every workload's report to this JSON file")
	fs.StringVar(&cfg.Spans, "spans", "", "with -trace 1, write every span to this file as JSON lines")
	child := fs.Bool("child", false, "run the one named workload in this process and print its report as JSON (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var sel []*workload
	if *name == "" {
		sel = workloads
	} else if w, ok := workloadByName(*name); ok {
		sel = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "faultbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	switch {
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(os.Stderr, "faultbench: -trace must be 0 or 1")
		return 2
	case cfg.Scale != "full" && cfg.Scale != "smoke":
		fmt.Fprintln(os.Stderr, "faultbench: -scale must be full or smoke")
		return 2
	case cfg.Seconds < 0:
		fmt.Fprintln(os.Stderr, "faultbench: -seconds must be ≥ 0")
		return 2
	case cfg.Spans != "" && *trace != 1:
		fmt.Fprintln(os.Stderr, "faultbench: -spans needs -trace 1")
		return 2
	}
	cfg.Trace = *trace == 1
	if *child {
		if len(sel) != 1 {
			fmt.Fprintln(os.Stderr, "faultbench: -child needs -workload")
			return 2
		}
		return runChild(sel[0], cfg)
	}

	if cfg.Spans != "" {
		if err := os.WriteFile(cfg.Spans, nil, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "faultbench:", err)
			return 1
		}
	}
	res := &results{Stamp: machineStamp(), Seed: cfg.Seed, Seconds: cfg.Seconds, Scale: cfg.Scale}
	ok := true
	for _, w := range sel {
		rep, err := spawn(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faultbench: %s: %v\n", w.Name, err)
			return 1
		}
		printReport(os.Stdout, rep)
		res.Reports = append(res.Reports, rep)
		ok = ok && rep.Correct
	}
	if *out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultbench:", err)
			return 1
		}
	}
	if len(sel) == 1 {
		if err := resultLine(os.Stdout, res.Reports[0]); err != nil {
			fmt.Fprintln(os.Stderr, "faultbench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

// spawn runs one workload in a child process and decodes its report.
// The child is killed if it outlives its time budget by two minutes.
func spawn(w *workload, cfg runConfig) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	timeout := time.Duration(cfg.Seconds*float64(time.Second)) + 2*time.Minute
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	trace := "0"
	if cfg.Trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.Name,
		"-seed", strconv.FormatUint(cfg.Seed, 10), "-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
		"-trace", trace, "-scale", cfg.Scale, "-spans", cfg.Spans)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("decoding the child's report: %w", err)
	}
	return &rep, nil
}

// runChild is the child process: run one workload, write its spans if
// asked, print its report.
func runChild(w *workload, cfg runConfig) int {
	rep, tr, err := runWorkload(context.Background(), w, cfg)
	if err == nil && cfg.Spans != "" {
		err = tr.writeSpans(cfg.Spans, w.Name)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultbench: %s: %v\n", w.Name, err)
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process — timed passes, or the
// traced pass — in a scratch directory it removes afterwards.
func runWorkload(ctx context.Context, w *workload, cfg runConfig) (*report, *tracer, error) {
	dir, err := os.MkdirTemp("", "faultbench-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	var (
		rep *report
		tr  *tracer
	)
	if cfg.Trace {
		rep, tr, err = traced(ctx, w, cfg, dir)
	} else {
		rep, err = measure(ctx, w, cfg, dir)
	}
	if err != nil {
		return nil, nil, err
	}
	rep.finish()
	return rep, tr, nil
}

// printReport writes one workload's metrics and checks for a reader.
func printReport(out io.Writer, rep *report) {
	status := "correct"
	if !rep.Correct {
		status = "INCORRECT"
	}
	fmt.Fprintf(out, "%s: %s, %d of %d cells failed\n", rep.Workload, status, rep.Failed, rep.Attempted)
	if rep.Traced {
		defs := append(append([]metricDef(nil), perLayer...), perLayerExtra...)
		sort.Slice(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
		for _, m := range defs {
			fmt.Fprintf(out, "  %-34s %14.6g %s\n", m.Name, rep.Layers[m.Name], m.Unit)
		}
	} else {
		for _, m := range endToEnd {
			s := summarize(rep.Samples[m.Name])
			fmt.Fprintf(out, "  %-16s %12.6g %-8s q1 %-10.6g q3 %-10.6g n=%d\n", m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N)
		}
		fmt.Fprintf(out, "  %-16s %12.6g\n", "failed_frac", failedFrac(rep))
	}
	for _, c := range rep.Checks {
		if c.OK {
			fmt.Fprintf(out, "  check %s: ok\n", c.Name)
		} else {
			fmt.Fprintf(out, "  check %s: FAILED: %s\n", c.Name, c.Detail)
		}
	}
}

// resultLine prints the one-line JSON result of a single-workload run:
// the end-to-end medians untraced, the per-layer values traced.
func resultLine(out io.Writer, rep *report) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if rep.Traced {
		for _, m := range perLayer {
			metrics[m.Name] = value{rep.Layers[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			xs := rep.Samples[m.Name]
			if len(xs) == 0 {
				return errors.New("no samples of " + m.Name)
			}
			metrics[m.Name] = value{median(xs), m.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
