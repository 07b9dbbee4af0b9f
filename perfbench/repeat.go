package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// exactMetrics are the per-layer metrics that are counts of deterministic
// work: two traced runs with one seed must report them identically.
var exactMetrics = []string{
	"wire.request_bytes",
	"plancache.hit_ratio",
	"core.isp_iterations",
	"flow.lp_calls",
	"flow.lp_warm_starts",
	"flow.lp_rebuilds",
	"flow.constructive_fallbacks",
	"core.session_split_hit_ratio",
	"core.session_routability_hit_ratio",
	"milp.nodes",
	"milp.lp_iterations",
	"milp.refactorisations",
	"milp.warm_solves",
	"milp.cold_solves",
}

// childRun is one child invocation's parsed output.
type childRun struct {
	line   resultLine
	digest string
	// firstSetup is the first of the run's set-up times, in seconds.
	firstSetup float64
}

// child runs this binary with args and parses its result line.
func child(args ...string) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v: %w", args, err)
	}
	cr := &childRun{}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
		if d, ok := strings.CutPrefix(last, "plan digest "); ok {
			cr.digest = d
		}
		if f, ok := strings.CutPrefix(last, "setup rounds s "); ok {
			cr.firstSetup, _ = strconv.ParseFloat(strings.Fields(f)[0], 64)
		}
	}
	if err := json.Unmarshal([]byte(last), &cr.line); err != nil {
		return nil, fmt.Errorf("%v: result line: %w", args, err)
	}
	return cr, nil
}

// repeatRuns runs w k times with seeds seed … seed+k-1 and prints, per
// end-to-end metric, the median, the quartiles, the spread between them
// and the largest deviation from the median (both as a share of the
// median). It then runs the traced invocation twice with one seed and
// reports whether every count and every plan repeated exactly.
func repeatRuns(w workload, seed int64, seconds float64, k int, out io.Writer) error {
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < k; i++ {
		cr, err := child("--workload", w.name, "--seed", strconv.FormatInt(seed+int64(i), 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		if err != nil {
			return err
		}
		if !cr.line.Correct {
			fmt.Fprintf(out, "run %d: %d of %d operations failed\n", i, cr.line.Failed, cr.line.Attempted)
		}
		for name, m := range cr.line.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		// The first set-up alone shows what the median over the rounds
		// buys in steadiness.
		values["setup_s.first"] = append(values["setup_s.first"], cr.firstSetup)
		units["setup_s.first"] = "s"
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s: %d runs, seeds %d..%d\n", w.name, k, seed, seed+int64(k)-1)
	fmt.Fprintf(out, "%-18s %12s %12s %12s %8s %8s %s\n", "metric", "median", "q1", "q3", "iqr%", "maxdev%", "unit")
	for _, name := range names {
		v := values[name]
		med := median(v)
		q1, q3 := quartiles(v)
		maxDev := 0.0
		for _, x := range v {
			maxDev = math.Max(maxDev, math.Abs(x-med))
		}
		fmt.Fprintf(out, "%-18s %12.6g %12.6g %12.6g %8.2f %8.2f %s\n",
			name, med, q1, q3, share(q3-q1, med), share(maxDev, med), units[name])
	}
	fmt.Fprintln(out, "values in seed order:")
	for _, name := range names {
		fmt.Fprintf(out, "%-18s", name)
		for _, x := range values[name] {
			fmt.Fprintf(out, " %.5g", x)
		}
		fmt.Fprintln(out)
	}

	a, err := child("--trace", "1", "--seed", strconv.FormatInt(seed, 10))
	if err != nil {
		return err
	}
	b, err := child("--trace", "1", "--seed", strconv.FormatInt(seed, 10))
	if err != nil {
		return err
	}
	same := a.digest == b.digest
	for _, name := range exactMetrics {
		if a.line.Metrics[name] != b.line.Metrics[name] {
			same = false
			fmt.Fprintf(out, "traced count %s differs: %v vs %v\n", name, a.line.Metrics[name].Value, b.line.Metrics[name].Value)
		}
	}
	fmt.Fprintf(out, "traced counts and plans repeated exactly: %v\n", same)
	return nil
}

func share(x, of float64) float64 {
	if of == 0 {
		return 0
	}
	return 100 * x / math.Abs(of)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - 4*j
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
