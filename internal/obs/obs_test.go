package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// parseExposition is a deliberately strict in-test Prometheus
// text-format reader: every sample line must parse as name{labels}
// value, every family must be announced by HELP and TYPE lines first,
// and a family may be announced at most once.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	announced := make(map[string]bool) // family → seen TYPE
	var current string
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			current = parts[0]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if parts[0] != current {
				t.Fatalf("line %d: TYPE %s without preceding HELP", ln+1, parts[0])
			}
			switch parts[1] {
			case "counter", "gauge", "summary":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, parts[1])
			}
			if announced[parts[0]] {
				t.Fatalf("line %d: family %s announced twice", ln+1, parts[0])
			}
			announced[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			t.Fatalf("line %d: sample without value: %q", ln+1, line)
		}
		key := line[:cut]
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
		}
		base := key
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		base = strings.TrimSuffix(strings.TrimSuffix(base, "_sum"), "_count")
		if !announced[base] {
			t.Fatalf("line %d: sample %s before its TYPE line", ln+1, key)
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("line %d: duplicate series %s", ln+1, key)
		}
		samples[key] = v
	}
	return samples
}

func scrape(t *testing.T, r *Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	r.WriteText(&b)
	return parseExposition(t, b.String())
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_ops_total", "Ops.").Add(7)
	r.Gauge("t_live", "Live things.").Set(3)
	r.FloatGauge("t_lag_seconds", "Lag.").Set(1.5)
	h := r.Histogram("t_wait_seconds", "Waits.")
	h.Add(2 * time.Second)
	h.Add(4 * time.Second)
	v := r.CounterVec("t_moves_total", "Moves.", "phase")
	v.With("started").Inc()
	v.With("completed").Add(2)

	got := scrape(t, r)
	want := map[string]float64{
		"t_ops_total":                      7,
		"t_live":                           3,
		"t_lag_seconds":                    1.5,
		"t_wait_seconds_count":             2,
		"t_wait_seconds_sum":               6,
		`t_moves_total{phase="started"}`:   1,
		`t_moves_total{phase="completed"}`: 2,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %g, want %g", k, got[k], w)
		}
	}
	// Quantiles are exposed in seconds and sit inside the observed range.
	for _, q := range []string{"0.5", "0.9", "0.99"} {
		key := fmt.Sprintf(`t_wait_seconds{quantile="%s"}`, q)
		if v, ok := got[key]; !ok || v < 1 || v > 5 {
			t.Errorf("%s = %g (ok=%v), want within [1,5]", key, v, ok)
		}
	}
}

func TestRegistryIdempotentAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("t_x_total", "X.")
	b := r.Counter("t_x_total", "X.")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("re-registered counter does not share state")
	}
	// Same family via a second CounterVec handle shares series too.
	v1 := r.CounterVec("t_y_total", "Y.", "kind")
	v2 := r.CounterVec("t_y_total", "Y.", "kind")
	v1.With("k").Add(3)
	if v2.With("k").Value() != 3 {
		t.Fatal("vec re-registration does not share series")
	}
	// Conflicting kind or label key is a programming error: panic.
	for _, f := range []func(){
		func() { r.Gauge("t_x_total", "X.") },
		func() { r.CounterVec("t_y_total", "Y.", "other") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("conflicting re-registration did not panic")
				}
			}()
			f()
		}()
	}
}

func TestSeriesOverflowFoldsIntoOther(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("t_s_total", "S.", "session")
	for i := 0; i < MaxSeriesPerFamily+10; i++ {
		v.With(fmt.Sprintf("s%d", i)).Inc()
	}
	got := scrape(t, r)
	series := 0
	for k := range got {
		if strings.HasPrefix(k, "t_s_total{") {
			series++
		}
	}
	if series != MaxSeriesPerFamily+1 {
		t.Fatalf("exposed %d series, want cap %d + overflow", series, MaxSeriesPerFamily)
	}
	if got[`t_s_total{session="other"}`] != 10 {
		t.Fatalf("overflow absorbed %g increments, want 10", got[`t_s_total{session="other"}`])
	}
	// Forget frees a slot; the overflow series itself is never dropped.
	v.Forget("s0")
	v.Forget(OverflowLabel)
	got = scrape(t, r)
	if _, ok := got[`t_s_total{session="s0"}`]; ok {
		t.Fatal("forgotten series still exposed")
	}
	if got[`t_s_total{session="other"}`] != 10 {
		t.Fatal("overflow series was dropped")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("t_e_total", "E.", "name").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	r.WriteText(&b)
	want := `t_e_total{name="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("exposition %q missing %q", b.String(), want)
	}
}

// TestConcurrentScrapeAndWrite hammers one registry from writer
// goroutines while scraping continuously — the race detector is the
// assertion, plus counters must be monotonic across scrapes.
func TestConcurrentScrapeAndWrite(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_w_total", "W.")
	v := r.CounterVec("t_l_total", "L.", "s")
	h := r.Histogram("t_d_seconds", "D.")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				c.Inc()
				v.With(fmt.Sprintf("s%d", i%40)).Inc() // crosses the overflow cap
				h.Add(time.Duration(i%1000) * time.Microsecond)
				select {
				case <-stop:
					return
				default:
				}
			}
		}(w)
	}
	var last float64
	for i := 0; i < 50; i++ {
		got := scrape(t, r)
		if got["t_w_total"] < last {
			t.Fatalf("counter went backwards: %g after %g", got["t_w_total"], last)
		}
		last = got["t_w_total"]
	}
	close(stop)
	wg.Wait()
	if final := scrape(t, r)["t_w_total"]; final < 4 || final < last {
		t.Fatalf("final count %g (last mid-run %g): writers never ran", final, last)
	}
}
