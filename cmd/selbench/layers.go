package main

import (
	"slices"
	"strings"
	"time"

	"selspec/internal/obs"
	"selspec/internal/opt"
	"selspec/internal/pipeline"
)

// spanConfig extracts the configuration from a stage span's detail,
// which the pipeline observer writes as "stage [program/config]" (or
// "stage [program]" for stages that precede configuration).
func spanConfig(detail string) string {
	i := strings.LastIndexByte(detail, '/')
	j := strings.LastIndexByte(detail, ']')
	if i < 0 || j < i {
		return ""
	}
	return detail[i+1 : j]
}

// deriveLayers turns the stage spans of a traced window into busy time
// per request, in ms, for each layer. requested is the set of
// configurations the window's requests asked for; client is the sum of
// their client-side latencies.
//
// A training run is an ordinary Base compile and interp inside a
// request for another configuration. When no request asked for Base,
// every Base-config compile or interp span is therefore training and
// counts as profile.train_ms; otherwise it is the request's own work.
// Stages nested under the server's harness span are subtracted from it
// to leave the harness's self time, and the harness time is subtracted
// from client latency to leave the HTTP and queueing residual.
func deriveLayers(spans []obs.Span, requested map[string]bool, requests int, client time.Duration) map[string]float64 {
	var sum = map[string]time.Duration{}
	var harness, nested time.Duration
	base := opt.Base.String()
	for _, sp := range spans {
		layer := ""
		switch pipeline.Stage(sp.Name) {
		case pipeline.StageHarness:
			harness += sp.D
			continue
		case pipeline.StageParse:
			layer = "lang.parse_ms"
		case pipeline.StageHierarchy:
			layer = "hier.build_ms"
		case pipeline.StageLower:
			layer = "ir.lower_ms"
		case pipeline.StageProfile:
			layer = "profile.train_ms"
		case pipeline.StageSpecialize:
			layer = "specialize.run_ms"
		case pipeline.StageCompile, pipeline.StageInterp:
			switch {
			case spanConfig(sp.Detail) == base && !requested[base]:
				layer = "profile.train_ms"
			case sp.Name == string(pipeline.StageCompile):
				layer = "opt.compile_ms"
			default:
				layer = "vm.run_ms"
			}
		}
		nested += sp.D
		if layer != "" {
			sum[layer] += sp.D
		}
	}
	sum["server.harness_self_ms"] = harness - nested
	sum["server.http_ms"] = client - harness
	out := map[string]float64{}
	for _, l := range slices.Concat(stageLayers, []string{"server.harness_self_ms", "server.http_ms"}) {
		out[l] = ms(sum[l]) / float64(max(requests, 1))
	}
	return out
}

// stageLayers are the layers measured by stage spans, as opposed to the
// server's own time around them.
var stageLayers = []string{"lang.parse_ms", "hier.build_ms", "ir.lower_ms", "profile.train_ms",
	"specialize.run_ms", "opt.compile_ms", "vm.run_ms"}
