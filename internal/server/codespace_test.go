package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"selspec/internal/gen"
)

// TestRunStatsReportCodeSpace pins the code-space figures of /run with
// stats: a run builds only the optimizer bodies it reaches, so a stats
// request builds the full static set first, and the figures are those
// of a static compile: every static body under CHA, and under Cust-MM
// (which has no static set) the bodies its run created on demand.
func TestRunStatsReportCodeSpace(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	genSrc := gen.New(gen.Config{Seed: 1, Classes: 200}).Source()
	for _, c := range []struct {
		req  RunRequest
		want RunStats
	}{
		{RunRequest{Bench: "Richards", Config: "CHA"},
			RunStats{StaticVersions: 37, InvokedVersions: 20, IRNodes: 1763}},
		{RunRequest{Bench: "Richards", Config: "Cust-MM"},
			RunStats{StaticVersions: 60, InvokedVersions: 31, IRNodes: 1146}},
		{RunRequest{Source: genSrc, Label: "gen", Config: "CHA"},
			RunStats{StaticVersions: 809, InvokedVersions: 246, IRNodes: 47507}},
		{RunRequest{Source: genSrc, Label: "gen", Config: "Cust-MM"},
			RunStats{StaticVersions: 2932, InvokedVersions: 1423, IRNodes: 121031}},
	} {
		c.req.Stats = true
		code, _, data := post(t, ts, c.req)
		if code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", c.req.Label+c.req.Bench, c.req.Config, code, data)
		}
		got := decodeRun(t, data).Stats
		if got == nil {
			t.Fatalf("%s %s: no stats", c.req.Label+c.req.Bench, c.req.Config)
		}
		if got.StaticVersions != c.want.StaticVersions || got.InvokedVersions != c.want.InvokedVersions || got.IRNodes != c.want.IRNodes {
			t.Errorf("%s %s: static_versions=%d invoked_versions=%d ir_nodes=%d, want %d %d %d", c.req.Label+c.req.Bench, c.req.Config,
				got.StaticVersions, got.InvokedVersions, got.IRNodes, c.want.StaticVersions, c.want.InvokedVersions, c.want.IRNodes)
		}
	}
}
