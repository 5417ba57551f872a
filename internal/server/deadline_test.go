package server

// Tests for the fleet-facing satellites on the single server: the
// propagated-deadline header, the ProgramKey identity the router
// hashes by, the PID in health bodies, and the jittered Retry-After
// hints on the circuit breaker.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
	"time"
)

// postWithHeader is post() plus arbitrary request headers.
func postWithHeader(t *testing.T, ts *httptest.Server, req RunRequest, hdr map[string]string) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestDeadlineHeaderCapsRequestTimeout(t *testing.T) {
	// The server's own deadline would be 30s; a router that has only
	// 150ms of client budget left says so via the header, and the
	// worker must cut the run at the header's deadline, not its own.
	ts := httptest.NewServer(New(Config{DefaultTimeout: 30 * time.Second}).Handler())
	defer ts.Close()

	start := time.Now()
	code, data := postWithHeader(t, ts, RunRequest{Source: loopProg},
		map[string]string{DeadlineHeader: "150"})
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, body %s", code, data)
	}
	if eb := decodeErr(t, data); eb.Kind != KindDeadline {
		t.Errorf("kind %q, want deadline", eb.Kind)
	}
	if elapsed > 5*time.Second {
		t.Errorf("deadline took %v; the 150ms header budget was ignored", elapsed)
	}
}

func TestDeadlineHeaderNeverExtendsTimeout(t *testing.T) {
	// The header is an upper bound only: a client-requested 100ms
	// deadline stays 100ms even when the router's budget is generous.
	// This is the double-timeout fix in the other direction.
	ts := httptest.NewServer(New(Config{DefaultTimeout: 30 * time.Second}).Handler())
	defer ts.Close()

	start := time.Now()
	code, data := postWithHeader(t, ts, RunRequest{Source: loopProg, TimeoutMS: 100},
		map[string]string{DeadlineHeader: strconv.Itoa(60_000)})
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, body %s", code, data)
	}
	if elapsed > 5*time.Second {
		t.Errorf("run lasted %v; a 60s header must not extend a 100ms request deadline", elapsed)
	}
}

func TestDeadlineHeaderGarbageIgnored(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	for _, h := range []string{"", "abc", "-50", "0"} {
		code, data := postWithHeader(t, ts, RunRequest{Source: testProg},
			map[string]string{DeadlineHeader: h})
		if code != http.StatusOK {
			t.Errorf("header %q: status %d, body %s; garbage must not reject the run", h, code, data)
		}
	}
}

func TestProgramKeyIdentity(t *testing.T) {
	if ProgramKey(testProg, "") != ProgramKey(testProg, "") {
		t.Error("source key not deterministic")
	}
	if ProgramKey("", "Richards") != ProgramKey("", "Richards") {
		t.Error("bench key not deterministic")
	}
	if ProgramKey(testProg, "") == ProgramKey(loopProg, "") {
		t.Error("distinct sources collide")
	}
	// A source that happens to spell a benchmark name must not collide
	// with the benchmark's own key.
	if ProgramKey("Richards", "") == ProgramKey("", "Richards") {
		t.Error("source \"Richards\" collides with bench Richards")
	}
	// Bench wins when both are set, matching resolve's order.
	if ProgramKey(testProg, "Richards") != ProgramKey("", "Richards") {
		t.Error("bench should take precedence in key derivation")
	}
	// The fleet router hashes by these strings, so they must not change.
	for _, c := range []struct{ source, bench, want string }{
		{"", "Richards", "4bad4c7944b5406b"},
		{"", "Compiler", "eb0826c8dc4e236f"},
		{"method main() { 0; }", "", "d9ff0166e5e8b978"},
		{"", "", "e3b0c44298fc1c14"},
		{"Richards", "", "6bb48cc5c7864234"},
	} {
		if got := ProgramKey(c.source, c.bench); got != c.want {
			t.Errorf("ProgramKey(%q, %q) = %s, want %s", c.source, c.bench, got, c.want)
		}
	}
}

func TestHealthReportsPID(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if h.PID != os.Getpid() {
			t.Errorf("%s pid = %d, want %d", path, h.PID, os.Getpid())
		}
	}
}

func TestRetryJitterBounds(t *testing.T) {
	d := 8 * time.Second
	lo, hi := d+d, time.Duration(0)
	for i := 0; i < 2000; i++ {
		j := retryJitter(d)
		if j < d || j > d+d/4 {
			t.Fatalf("retryJitter(%v) = %v, outside [d, 5d/4]", d, j)
		}
		if j < lo {
			lo = j
		}
		if j > hi {
			hi = j
		}
	}
	if hi-lo < d/8 {
		t.Errorf("jitter spread only [%v, %v]; hints would stay in lockstep", lo, hi)
	}
	if got := retryJitter(0); got != 0 {
		t.Errorf("retryJitter(0) = %v, want 0", got)
	}
}

func TestBreakerRetryAfterIsJittered(t *testing.T) {
	b := newBreaker(1, 10*time.Second, 8)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }
	// Deterministic jitter for the assertion; production wiring is
	// covered by TestRetryJitterBounds.
	b.jitter = func(d time.Duration) time.Duration { return d + 17*time.Millisecond }

	b.record("k", true) // threshold 1: opens immediately
	ok, ra := b.allow("k")
	if ok {
		t.Fatal("circuit should be open")
	}
	if want := 10*time.Second + 17*time.Millisecond; ra != want {
		t.Errorf("retryAfter = %v, want cooldown+jitter %v", ra, want)
	}

	// Half-open trial in flight: the competing request's hint is the
	// jittered cooldown.
	now = now.Add(11 * time.Second)
	if ok, _ := b.allow("k"); !ok {
		t.Fatal("expired circuit should admit the half-open trial")
	}
	ok, ra = b.allow("k")
	if ok {
		t.Fatal("second request must not join the half-open trial")
	}
	if want := 10*time.Second + 17*time.Millisecond; ra != want {
		t.Errorf("half-open retryAfter = %v, want %v", ra, want)
	}
}
