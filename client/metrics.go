package client

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Metrics scrapes GET /v1/metrics and returns every sample as a flat
// map: plain series key on their metric name ("wf_sessions"), labeled
// series on name{key="value"} exactly as exposed, and summaries on
// their quantile/_sum/_count series. Values are the exposed float64s
// (durations in seconds). The map is a point-in-time cut — subtract
// two scrapes to get deltas over a window, as wfload -matrix does.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	resp, err := c.get(ctx, "/metrics", false)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return ParseMetrics(resp.Body)
}

// ParseMetrics reads a Prometheus text exposition into the flat
// series → value map Metrics returns. Comment and blank lines are
// skipped; a sample line that does not end in a float is an error
// (the scrape is corrupt, not partially useful).
func ParseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is the last space-separated token; everything before
		// it is the series key (label values may themselves hold spaces).
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("client: metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("client: metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("client: read metrics: %w", err)
	}
	return out, nil
}
