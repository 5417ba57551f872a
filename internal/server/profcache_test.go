package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"selspec/internal/obs"
	"selspec/internal/opt"
	"selspec/internal/pipeline"
	"selspec/internal/profile"
)

// memoServer is a server with metrics on, so the memo's counters can
// be read back.
func memoServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Metrics = obs.NewRegistry()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// memoCounts reads the hit and miss counters off the server.
func memoCounts(srv *Server) (hits, misses uint64) {
	return srv.mProfileHit.Value(), srv.mProfileMiss.Value()
}

// postStable posts req and returns its 200 response in stable form.
func postStable(t *testing.T, ts *httptest.Server, req RunRequest) string {
	t.Helper()
	code, _, data := post(t, ts, req)
	return stable(t, code, data)
}

// stable is a 200 response with the one nondeterministic field, the
// run's wall time, zeroed.
func stable(t *testing.T, code int, data []byte) string {
	t.Helper()
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	rr := decodeRun(t, data)
	if rr.Stats != nil {
		rr.Stats.WallNS = 0
	}
	out, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// A repeated Selective request is served from the memoized profile and
// answers exactly what the first, trained, request answered: same
// value, output and stats, so the same specializations ran.
func TestProfileMemoRepeatIsIdentical(t *testing.T) {
	srv, ts := memoServer(t, Config{})
	for i, req := range []RunRequest{
		{Source: testProg, Config: "Selective", Threshold: 1, Stats: true},
		{Bench: "Richards", Config: "Selective", Stats: true},
	} {
		code, _, data := post(t, ts, req)
		first := stable(t, code, data)
		code, _, data = post(t, ts, req)
		if second := stable(t, code, data); second != first {
			t.Errorf("request %d: memoized response differs\nfirst:  %s\nsecond: %s", i, first, second)
		}
		if h, m := memoCounts(srv); h != uint64(i+1) || m != uint64(i+1) {
			t.Errorf("after request %d twice: hits %d, misses %d; want %d, %d", i, h, m, i+1, i+1)
		}
	}
	m := scrape(t, ts)
	if m[`selspec_server_profile_cache_total{result="hit"}`] != 2 || m[`selspec_server_profile_cache_total{result="miss"}`] != 2 {
		t.Errorf("scraped profile_cache_total: hit %v, miss %v; want 2, 2",
			m[`selspec_server_profile_cache_total{result="hit"}`], m[`selspec_server_profile_cache_total{result="miss"}`])
	}
}

// A hit skips the training run: the second request emits no Base
// compile or interp span, and one profile span where training was.
func TestProfileMemoHitSkipsTraining(t *testing.T) {
	tr := obs.NewTracer(0)
	defer pipeline.SetObserver(pipeline.NewObserver(nil, tr))()
	srv, ts := memoServer(t, Config{})

	req := RunRequest{Source: testProg, Config: "Selective"}
	count := func(spans []obs.Span) (base, prof int) {
		for _, sp := range spans {
			switch {
			case sp.Name == string(pipeline.StageProfile):
				prof++
			case (sp.Name == string(pipeline.StageCompile) || sp.Name == string(pipeline.StageInterp)) &&
				strings.HasSuffix(sp.Detail, "/Base]"):
				base++
			}
		}
		return base, prof
	}
	postStable(t, ts, req)
	first := len(tr.Spans())
	if base, prof := count(tr.Spans()); base != 2 || prof != 0 {
		t.Fatalf("miss: %d Base spans, %d profile spans; want 2 (training compile + interp), 0", base, prof)
	}
	postStable(t, ts, req)
	if base, prof := count(tr.Spans()[first:]); base != 0 || prof != 1 {
		t.Errorf("hit: %d Base spans, %d profile spans; want 0, 1", base, prof)
	}
	if h, m := memoCounts(srv); h != 1 || m != 1 {
		t.Errorf("hits %d, misses %d; want 1, 1", h, m)
	}
}

// A failed training run stores nothing, so the next request trains
// again: here the training run's interp stage fails once.
func TestProfileMemoSkipsFailedTraining(t *testing.T) {
	defer pipeline.ArmFaults(pipeline.NewInjector(1, pipeline.FaultRule{
		Stage: pipeline.StageInterp, Config: opt.Base.String(), Action: pipeline.FaultError, Limit: 1,
	}))()
	srv, ts := memoServer(t, Config{})

	req := RunRequest{Source: testProg, Config: "Selective"}
	code, _, data := post(t, ts, req)
	if code != http.StatusUnprocessableEntity || !strings.Contains(decodeErr(t, data).Error, "training run") {
		t.Fatalf("faulted training: status %d: %s", code, data)
	}
	if n := srv.profiles.len(); n != 0 {
		t.Fatalf("failed training cached %d profiles", n)
	}
	postStable(t, ts, req)
	postStable(t, ts, req)
	if h, m := memoCounts(srv); h != 1 || m != 2 {
		t.Errorf("hits %d, misses %d; want 1, 2 (the failed run must not count as cached)", h, m)
	}
}

// A training run cut off by the request deadline stores nothing either.
func TestProfileMemoSkipsTimedOutTraining(t *testing.T) {
	srv, ts := memoServer(t, Config{})
	code, _, data := post(t, ts, RunRequest{Bench: "Richards", Config: "Selective", TimeoutMS: 1})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", code, data)
	}
	if n := srv.profiles.len(); n != 0 {
		t.Fatalf("timed-out training cached %d profiles", n)
	}
	postStable(t, ts, RunRequest{Bench: "Richards", Config: "Selective"})
	if h, m := memoCounts(srv); h != 0 || m != 2 {
		t.Errorf("hits %d, misses %d; want 0, 2", h, m)
	}
}

// The key is the full source hash: two programs one comment byte apart
// train separately.
func TestProfileMemoKeyIsWholeSource(t *testing.T) {
	srv, ts := memoServer(t, Config{})
	for _, src := range []string{testProg + "-- a\n", testProg + "-- b\n"} {
		postStable(t, ts, RunRequest{Source: src, Config: "Selective"})
	}
	if h, m := memoCounts(srv); h != 0 || m != 2 {
		t.Errorf("hits %d, misses %d; want 0, 2", h, m)
	}
	if n := srv.profiles.len(); n != 2 {
		t.Errorf("cached %d profiles, want 2", n)
	}
	// The training input is part of the key as well.
	if newProfileKey(sourceDigest(testProg), map[string]int64{"n": 1}) == newProfileKey(sourceDigest(testProg), map[string]int64{"n": 2}) {
		t.Error("training overrides are not part of the key")
	}
	if newProfileKey(sourceDigest(testProg), map[string]int64{"a": 1, "b": 2}) != newProfileKey(sourceDigest(testProg), map[string]int64{"b": 2, "a": 1}) {
		t.Error("key depends on map order")
	}
}

// The memo holds profileCacheSize entries and evicts the least
// recently used one.
func TestProfileCacheEvictsLRU(t *testing.T) {
	c := newProfileCache(profileCacheSize)
	key := func(i int) profileKey { return newProfileKey(sourceDigest(fmt.Sprint(i)), nil) }
	for i := 0; i < profileCacheSize; i++ {
		c.put(key(i), &profile.Wire{})
	}
	c.get(key(0)) // 0 is now the most recently used; 1 is the oldest
	c.put(key(profileCacheSize), &profile.Wire{})
	if n := c.len(); n != profileCacheSize {
		t.Fatalf("len = %d, want %d", n, profileCacheSize)
	}
	if c.get(key(1)) != nil {
		t.Error("least recently used entry survived eviction")
	}
	for _, i := range []int{0, 2, profileCacheSize} {
		if c.get(key(i)) == nil {
			t.Errorf("entry %d was evicted", i)
		}
	}
	// Storing an existing key refreshes it in place.
	w := &profile.Wire{Version: 7}
	c.put(key(2), w)
	if c.get(key(2)) != w || c.len() != profileCacheSize {
		t.Error("re-put did not replace the entry in place")
	}
}

// A storm of same-program requests across every configuration: every
// response matches the sequential answer for its configuration, every
// Selective request is counted once as a hit or a miss, and one
// profile is cached.
func TestProfileMemoSameKeyStorm(t *testing.T) {
	const n = 32
	srv, ts := memoServer(t, Config{MaxConcurrent: 4, QueueDepth: n})
	cfgs := opt.Configs()
	want := map[string]string{}
	for _, cfg := range cfgs {
		// A separate server answers the reference, so the storm starts
		// with a cold memo.
		ref := httptest.NewServer(New(Config{}).Handler())
		want[cfg.String()] = postStable(t, ref, RunRequest{Source: testProg, Config: cfg.String(), Threshold: 1, Stats: true})
		ref.Close()
	}

	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(RunRequest{Source: testProg, Config: cfgs[i%len(cfgs)].String(), Threshold: 1, Stats: true})
			resp, err := ts.Client().Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
			if err != nil {
				bodies[i] = []byte(err.Error())
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	selective := 0
	for i := 0; i < n; i++ {
		cfg := cfgs[i%len(cfgs)].String()
		if cfg == opt.Selective.String() {
			selective++
		}
		if got := stable(t, codes[i], bodies[i]); got != want[cfg] {
			t.Errorf("request %d (%s): %s, want %s", i, cfg, got, want[cfg])
		}
	}
	h, m := memoCounts(srv)
	if h+m != uint64(selective) || m == 0 {
		t.Errorf("hits %d + misses %d, want %d Selective requests with at least one miss", h, m, selective)
	}
	if n := srv.profiles.len(); n != 1 {
		t.Errorf("cached %d profiles, want 1", n)
	}
}
