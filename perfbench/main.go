// Command perfbench is the repository's serving benchmark. It boots a
// one-node in-process nrserved fleet, drives one named workload over HTTP
// with a two-client closed loop for a fixed window, checks every answer,
// and prints the end-to-end metrics. With --trace 1 it instead replays
// every workload's seeded operations in-process through each layer's entry
// point and prints the per-layer metrics. With --repeat k it runs the
// workload k times as child processes and prints each metric's spread.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 0.19, "unit": "ms"}, …}}
//
// A self-check failure (too few samples beyond p99, a plan cache hit
// ratio other than the workload's, a session script out of step with the
// server) exits with status 1 and prints no result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "plan_hot", "workload: plan_hot, plan_cold, replan_session or plan_opt")
	seed := fs.Int64("seed", 1, "root of every random stream of the run")
	seconds := fs.Float64("seconds", 50, "length of the timed window")
	trace := fs.Int("trace", 0, "1 replays every workload in-process and prints the per-layer metrics")
	spans := fs.String("spans", "", "with --trace 1, write the spans as JSON lines to this file")
	repeat := fs.Int("repeat", 0, "run the workload this many times as child processes and print each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", *name, *trace, *seconds)
		return 2
	}
	if *repeat > 0 {
		if err := repeatRuns(w, *seed, *seconds, *repeat, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	var res *result
	label := w.name
	if *trace == 1 {
		label = "traced"
		res, err = traced(*seed, *spans)
	} else {
		res, err = runHTTP(w, *seed, time.Duration(*seconds*float64(time.Second)))
	}
	if err == nil {
		err = errors.Join(res.selfChecks...)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", label, err)
		return 1
	}
	if err := report(res, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// jsonMetric is one metric of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object printed last.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the metrics by name with their unit, every set-up time,
// the non-2xx and error counts, the first answer-check failures, and the
// result line.
func report(res *result, out io.Writer) error {
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]jsonMetric)}
	for _, m := range res.metrics {
		fmt.Fprintf(out, "%-44s %14.6g %s\n", m.name, m.value, m.unit)
		line.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	codes := make([]int, 0, len(res.statuses))
	for code := range res.statuses {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	if len(res.setups) > 0 {
		fmt.Fprintf(out, "setup rounds s")
		for _, v := range res.setups {
			fmt.Fprintf(out, " %g", v)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "attempted %d, failed %d\n", res.attempted, res.failed)
	for _, code := range codes {
		label := strconv.Itoa(code)
		if code == 0 {
			label = "transport error"
		}
		fmt.Fprintf(out, "status %s: %d\n", label, res.statuses[code])
	}
	for _, f := range res.failures {
		fmt.Fprintf(out, "check failed: %s\n", f)
	}
	if res.digest != "" {
		fmt.Fprintf(out, "plan digest %s\n", res.digest)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(out, "%s\n", enc)
	return err
}
