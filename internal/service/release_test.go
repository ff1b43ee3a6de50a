package service_test

import (
	"context"
	"errors"
	"testing"

	"wfreach/internal/api"
	"wfreach/internal/cluster"
	"wfreach/internal/service"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// TestReleaseOfAClosedLogIsNotDurable: every open log is hash-chained,
// so the one release a chain cannot verify is of a session whose log is
// closed. It answers not_durable, leaves the session unsealed and
// installs no override.
func TestReleaseOfAClosedLogIsNotDurable(t *testing.T) {
	reg, err := service.NewDurableRegistry(service.DurableOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := reg.Create("s", spec.MustCompile(wfspecs.RunningExample()), service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := api.ClusterMap{Version: 1, Nodes: []api.ClusterNode{
		{Name: "a", URL: "http://a.example"}, {Name: "b", URL: "http://b.example"},
	}}
	ctl, err := cluster.New("a", m, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = ctl.Release(context.Background(), api.ReleaseRequest{Session: "s", Node: "b", URL: "http://b.example"})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeNotDurable {
		t.Fatalf("release of a session with a closed log: %v, want %s", err, api.CodeNotDurable)
	}
	if to := s.SealedTo(); to != "" {
		t.Fatalf("the refused release left the session sealed to %q", to)
	}
	if ov, ok := ctl.Map().Overrides["s"]; ok {
		t.Fatalf("the refused release installed an override %+v", ov)
	}
}
