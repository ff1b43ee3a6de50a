package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"wfreach/internal/api"
)

// LoadMap reads a cluster map from a JSON config file (the -cluster
// flag). The file is the api.ClusterMap wire shape:
//
//	{
//	  "version": 1,
//	  "nodes": [
//	    {"name": "a", "url": "http://127.0.0.1:8081", "follower": "http://127.0.0.1:9081"},
//	    {"name": "b", "url": "http://127.0.0.1:8082", "weight": 2}
//	  ]
//	}
//
// Every node in a cluster loads the same file; placement is
// deterministic in the map, so no further coordination is needed to
// agree who owns what. Overrides in the file are honored (an operator
// can pin sessions), though they normally appear only at runtime, as
// moves install them.
func LoadMap(path string) (api.ClusterMap, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return api.ClusterMap{}, fmt.Errorf("cluster: read map: %w", err)
	}
	var m api.ClusterMap
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return api.ClusterMap{}, fmt.Errorf("cluster: parse map %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return api.ClusterMap{}, fmt.Errorf("cluster: map %s: %w", path, err)
	}
	sort.Slice(m.Nodes, func(i, j int) bool { return m.Nodes[i].Name < m.Nodes[j].Name })
	return m, nil
}
