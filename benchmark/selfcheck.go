package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// selfRuns is the number of runs in each of the two sets.
const selfRuns = 5

// selfCheck is the tool that catches a noisy benchmark before it is
// submitted. For every workload it runs two sets of selfRuns untraced
// runs of this same binary, interleaved (A1 B1 A2 B2 …), every run a
// fresh process with its own seed, exactly as the acceptance driver
// does. Per workload × end-to-end metric it prints the two set medians,
// how far the second is worse than the first, the interquartile spread
// of all runs as a share of their median, and the bound; it returns
// non-zero when a disagreement or (setup_s excepted, as in the driver)
// a spread exceeds its bound, or any run fails.
func selfCheck(quick bool, seconds float64, out io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: selfcheck:", err)
		return 1
	}
	bad := 0
	for _, w := range workloadDefs {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*selfRuns; i++ {
			args := []string{"-workload", w.Name, "-seed", strconv.Itoa(i + 1), "-seconds", fmt.Sprint(seconds), "-trace", "0"}
			if quick {
				args = append(args, "-quick")
			}
			res, err := runChild(exe, args)
			if err != nil {
				fmt.Fprintf(out, "%s run %d: %v\n", w.Name, i+1, err)
				bad++
				continue
			}
			for name, v := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], v.Value)
			}
		}
		fmt.Fprintf(out, "%-16s %-24s %14s %14s %9s %9s %7s\n", w.Name, "metric", "median A", "median B", "B worse", "spread", "bound")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			if len(a) < 2 || len(b) < 2 {
				continue
			}
			worse, sp, ok := judge(d, a, b)
			verdict := ""
			if !ok {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Fprintf(out, "%-16s %-24s %14.6g %14.6g %8.2f%% %8.2f%% %6.2f%%%s\n",
				"", d.Name, median(a), median(b), 100*worse, 100*sp, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(out, "selfcheck: %d failures\n", bad)
		return 1
	}
	fmt.Fprintln(out, "selfcheck: both sets agree within every bound")
	return 0
}

// judge applies the driver's two acceptance rules to the two sets of one
// metric: the second set's median may not be worse than the first's by
// more than the bound, and (setup_s excepted) the interquartile spread
// of all runs may not exceed the bound.
func judge(d metricDef, a, b []float64) (worse, sp float64, ok bool) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / math.Abs(ma)
	if d.Better == "higher" {
		worse = -worse
	}
	sp = spread(append(append([]float64{}, a...), b...))
	return worse, sp, worse <= d.Bound && (sp <= d.Bound || d.Name == "setup_s")
}

// runChild runs one benchmark process to completion and parses the
// result on the last line of its standard output.
func runChild(exe string, args []string) (result, error) {
	var res result
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return res, err
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("parse result line: %w", err)
	}
	if exitCode(res) != 0 {
		return res, fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return res, nil
}
