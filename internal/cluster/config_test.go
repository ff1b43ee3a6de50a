package cluster

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadMap(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.json", `{
		"version": 1,
		"nodes": [
			{"name": "b", "url": "http://127.0.0.1:8082", "weight": 2},
			{"name": "a", "url": "http://127.0.0.1:8081", "follower": "http://127.0.0.1:9081"}
		]
	}`)
	m, err := LoadMap(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Nodes) != 2 || m.Nodes[0].Name != "a" || m.Nodes[1].Weight != 2 {
		t.Fatalf("loaded map %+v", m)
	}
	for name, body := range map[string]string{
		"unknown-field.json": `{"nodes": [{"name": "a", "url": "http://x"}], "primary": "a"}`,
		"no-nodes.json":      `{"version": 1}`,
		"bad-url.json":       `{"nodes": [{"name": "a", "url": "127.0.0.1:8081"}]}`,
		"dup.json":           `{"nodes": [{"name": "a", "url": "http://x"}, {"name": "a", "url": "http://y"}]}`,
		"bad-override.json":  `{"nodes": [{"name": "a", "url": "http://x"}], "overrides": {"s": {"node": "z"}}}`,
	} {
		if _, err := LoadMap(write(name, body)); err == nil {
			t.Errorf("%s accepted", name)
		} else if !strings.Contains(err.Error(), "cluster:") {
			t.Errorf("%s: error %v lacks package prefix", name, err)
		}
	}
}
