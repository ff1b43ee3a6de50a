package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"

	"wfreach/internal/api"
	"wfreach/internal/graph"
)

func graphID(v int32) graph.VertexID { return graph.VertexID(v) }

func TestSameSeedSameInputs(t *testing.T) {
	gen := func(seed int64) ([]byte, []query) {
		t.Helper()
		s, err := bioaidStream(subSeed(seed, 0), quickSizes.bioaid)
		if err != nil {
			t.Fatal(err)
		}
		var frames []byte
		for _, ev := range s.wire {
			if frames, err = api.AppendFrame(frames, ev); err != nil {
				t.Fatal(err)
			}
		}
		return frames, newOracle(s).queries(newRand(seed, 1), len(s.events), 8)
	}
	f1, q1 := gen(7)
	f2, q2 := gen(7)
	if !bytes.Equal(f1, f2) {
		t.Error("same seed: frame streams differ")
	}
	if !reflect.DeepEqual(q1, q2) {
		t.Error("same seed: pair sets differ")
	}
	f3, q3 := gen(8)
	if bytes.Equal(f1, f3) {
		t.Error("different seeds: identical frame streams")
	}
	if reflect.DeepEqual(q1, q3) {
		t.Error("different seeds: identical pair sets")
	}
}

// The oracle's closures must agree with internal/graph's own BFS, and a
// query set must cover both answers.
func TestOracleAgreesWithGraphReaches(t *testing.T) {
	s, err := agentStream(3, quickSizes.agentEvents)
	if err != nil {
		t.Fatal(err)
	}
	var yes, no int
	for _, q := range newOracle(s).queries(newRand(3, 0), len(s.events), 4) {
		for i, p := range q.pairs {
			if got := s.graph.Reaches(graphID(p.From), graphID(p.To)); got != q.want[i] {
				t.Fatalf("pair %d→%d: oracle %v, graph.Reaches %v", p.From, p.To, q.want[i], got)
			}
			if q.want[i] {
				yes++
			} else {
				no++
			}
		}
	}
	if yes == 0 || no == 0 {
		t.Errorf("query set is one-sided: %d reachable, %d not", yes, no)
	}
}

func TestStats(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v", got)
	}
	if got := percentile(hundred, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(hundred[:10])
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	if got := spread(hundred[:10]); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{19, 0, false}, {20, 50, true}, {100, 90, true}, {200, 95, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true}, {100000, 99.99, true}} {
		if got, ok := highestPercentile(c.n); got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v %v, want %v %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "service.append", Start: 0, End: 100, Parent: -1},
		{Name: "core.insert", Start: 10, End: 40, Parent: 0},
		{Name: "wal.commit", Start: 50, End: 90, Parent: 0},
		{Name: "wal.flush", Start: 60, End: 80, Parent: 2},
	}
	got := tr.totals()
	for name, want := range map[string]spanTotals{
		"service.append": {1, 100, 30},
		"core.insert":    {1, 30, 30},
		"wal.commit":     {1, 40, 20},
		"wal.flush":      {1, 20, 20},
	} {
		if *got[name] != want {
			t.Errorf("%s = %+v, want %+v", name, *got[name], want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "batch_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	if _, _, ok := judge(lower, steady, steady); !ok {
		t.Error("identical sets judged different")
	}
	if _, _, ok := judge(lower, steady, []float64{112, 113, 111, 112, 112}); ok {
		t.Error("a 12% worse second set passed a 10% bound")
	}
	if _, _, ok := judge(higher, []float64{112, 113, 111, 112, 112}, steady); ok {
		t.Error("a 12% lower second set passed a 10% bound on a higher-is-better metric")
	}
	if worse, _, ok := judge(higher, steady, []float64{104, 105, 103, 104, 104}); !ok || worse >= 0 {
		t.Errorf("a 4%% better second set: worse = %v, ok = %v", worse, ok)
	}
	if _, _, ok := judge(lower, []float64{80, 120, 100, 70, 130}, []float64{100, 75, 125, 85, 115}); ok {
		t.Error("a 40% spread passed a 10% bound")
	}
	if _, _, ok := judge(metricDef{Name: "setup_s", Better: "lower", Bound: 0.10}, []float64{80, 120, 100, 70, 130}, []float64{100, 75, 125, 85, 115}); !ok {
		t.Error("setup_s is exempt from the spread rule")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func quickRun(t *testing.T, workload string, trace, flip bool) result {
	t.Helper()
	res, err := runWorkload(config{workload: workload, seed: 1, quick: true, trace: trace, tmpRoot: t.TempDir(), flipOracle: flip}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkDeclared(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		switch {
		case !metricName.MatchString(d.Name):
			t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
		case !ok:
			t.Errorf("declared metric %s not reported", d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s reported in %q, declared in %q", d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s = %v", d.Name, v.Value)
		}
	}
}

func TestQuickRuns(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			a, b := quickRun(t, w, false, false), quickRun(t, w, false, false)
			for _, res := range []result{a, b} {
				if exitCode(res) != 0 {
					t.Fatalf("%d of %d ops failed", res.Failed, res.Attempted)
				}
				checkDeclared(t, res, endToEnd)
			}
			for _, d := range endToEnd {
				if d.Name != "setup_s" && a.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.Name, a.Metrics[d.Name].Value)
				}
			}
			// Counts come from fixed op counts, not timers: they repeat.
			for _, name := range []string{"label_bytes_per_event", "label_bits_max", "stored_bytes_per_event"} {
				if x, y := a.Metrics[name].Value, b.Metrics[name].Value; x != y {
					t.Errorf("%s differs between two runs of one seed: %v vs %v", name, x, y)
				}
			}
			// Allocation counts also pick up the runtime's own background
			// allocations, which a 2k-event round does not average out.
			if x, y := a.Metrics["allocs_per_op"].Value, b.Metrics["allocs_per_op"].Value; math.Abs(x-y) > 0.02*x {
				t.Errorf("allocs_per_op differs between two runs of one seed: %v vs %v", x, y)
			}

			traced := quickRun(t, w, true, false)
			if exitCode(traced) != 0 {
				t.Fatalf("traced: %d of %d ops failed", traced.Failed, traced.Attempted)
			}
			checkDeclared(t, traced, perLayer)
		})
	}
}

func TestWrongAnswerFailsTheRun(t *testing.T) {
	for _, w := range workloadNames() {
		res := quickRun(t, w, false, true)
		if res.Failed == 0 || res.Correct || exitCode(res) == 0 {
			t.Errorf("%s: a corrupted oracle answer went unnoticed: %+v", w, res)
		}
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go")

// BENCHMARK.json is what the driver reads; the tables in metrics.go are
// what the command reports. They must say the same thing.
func TestBenchmarkJSONMatchesDeclaredMetrics(t *testing.T) {
	want, err := json.MarshalIndent(theManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go; run go test ./benchmark -update\n%s", want)
	}
	names := map[string]bool{}
	m := theManifest()
	for _, d := range slices.Concat(m.EndToEnd, m.PerLayer) {
		if names[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		names[d.Name] = true
	}
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range m.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
}
