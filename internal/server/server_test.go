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
	"time"

	"selspec/internal/driver"
	"selspec/internal/interp"
	"selspec/internal/opt"
	"selspec/internal/pipeline"
	"selspec/internal/specialize"
)

// testProg is a small deterministic program exercising dispatch,
// printing, and a non-trivial result.
const testProg = `
class A
class B isa A
method m(x@A) { 1; }
method m(x@B) { 2; }
method main() {
  var total := 0;
  var objs := newarray(2);
  aput(objs, 0, new A());
  aput(objs, 1, new B());
  var i := 0;
  while i < 10 { total := total + m(aget(objs, i % 2)); i := i + 1; }
  println("total " + str(total));
  total;
}
`

// loopProg runs long enough that the wall-clock guard always fires
// before it completes (it is only ever run under a deadline).
const loopProg = `
method main() {
  var i := 0;
  while i < 2000000000 { i := i + 1; }
  i;
}
`

func post(t *testing.T, ts *httptest.Server, req RunRequest) (int, http.Header, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

func decodeRun(t *testing.T, data []byte) RunResponse {
	t.Helper()
	var rr RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatalf("bad RunResponse %q: %v", data, err)
	}
	return rr
}

func decodeErr(t *testing.T, data []byte) ErrorBody {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatalf("bad ErrorBody %q: %v", data, err)
	}
	return eb
}

// oneShot runs the same program through the programmatic one-shot API
// the CLIs use, for byte-identical comparison with service responses.
func oneShot(t *testing.T, src string, cfg opt.Config) *driver.Result {
	t.Helper()
	p, err := driver.LoadNamed("request", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunConfig(driver.ConfigOptions{
		Opt:  opt.Options{Config: cfg},
		Spec: specialize.Params{Threshold: specialize.DefaultThreshold},
		Run:  driver.RunOptions{CaptureOutput: true, Mechanism: interp.MechPIC},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunAllConfigsMatchesOneShot(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	for _, cfg := range opt.Configs() {
		code, _, data := post(t, ts, RunRequest{Source: testProg, Config: cfg.String(), Stats: true})
		if code != http.StatusOK {
			t.Fatalf("%v: status %d: %s", cfg, code, data)
		}
		got := decodeRun(t, data)
		want := oneShot(t, testProg, cfg)
		if got.Value != want.Value || got.Output != want.Output {
			t.Errorf("%v: served (%q, %q), one-shot (%q, %q)", cfg, got.Value, got.Output, want.Value, want.Output)
		}
		if got.Stats == nil || got.Stats.Cycles != want.Counters.Cycles {
			t.Errorf("%v: stats = %+v, want cycles %d", cfg, got.Stats, want.Counters.Cycles)
		}
	}
}

// TestRunWithVerify: a server configured with Verify runs the bytecode
// verifier on every request's compiled module and still serves the same
// answers under every configuration.
func TestRunWithVerify(t *testing.T) {
	ts := httptest.NewServer(New(Config{Verify: true}).Handler())
	defer ts.Close()

	for _, cfg := range opt.Configs() {
		code, _, data := post(t, ts, RunRequest{Source: testProg, Config: cfg.String()})
		if code != http.StatusOK {
			t.Fatalf("%v: status %d: %s", cfg, code, data)
		}
		got := decodeRun(t, data)
		want := oneShot(t, testProg, cfg)
		if got.Value != want.Value || got.Output != want.Output {
			t.Errorf("%v: verified run (%q, %q), one-shot (%q, %q)", cfg, got.Value, got.Output, want.Value, want.Output)
		}
	}
}

func TestRunBenchmark(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	code, _, data := post(t, ts, RunRequest{Bench: "Sets", Config: "CHA"})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	if got := decodeRun(t, data); !strings.Contains(got.Output, "overlapping pairs counted") {
		t.Errorf("output = %q", got.Output)
	}
}

func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	cases := []RunRequest{
		{},                                    // neither source nor bench
		{Source: testProg, Bench: "Richards"}, // both
		{Bench: "Nope"},                       // unknown benchmark
		{Source: testProg, Config: "Bogus"},   // unknown config
		{Source: testProg, Dispatch: "Bogus"}, // unknown mechanism
	}
	for i, req := range cases {
		code, _, data := post(t, ts, req)
		if code != http.StatusBadRequest {
			t.Errorf("case %d: status %d: %s", i, code, data)
			continue
		}
		if eb := decodeErr(t, data); eb.Kind != KindBadRequest {
			t.Errorf("case %d: kind %q", i, eb.Kind)
		}
	}

	// Non-JSON body.
	resp, err := ts.Client().Post(ts.URL+"/run", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-JSON body: status %d", resp.StatusCode)
	}
}

func TestProgramErrorIsStructured(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	code, _, data := post(t, ts, RunRequest{Source: "method main() { undefined_thing; }"})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", code, data)
	}
	eb := decodeErr(t, data)
	if eb.Kind != KindProgram || !strings.Contains(eb.Error, "undefined variable") {
		t.Errorf("body = %+v", eb)
	}
}

func TestDeadlineProducesStructuredTimeout(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	code, _, data := post(t, ts, RunRequest{Source: loopProg, TimeoutMS: 50})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", code, data)
	}
	if eb := decodeErr(t, data); eb.Kind != KindDeadline {
		t.Errorf("kind = %q (%+v)", eb.Kind, eb)
	}
}

func TestInjectedPanicIsIsolatedPerRequest(t *testing.T) {
	inj := pipeline.NewInjector(1, pipeline.FaultRule{
		Stage: pipeline.StageCompile, Program: "victim", Action: pipeline.FaultPanic, Message: "chaos",
	})
	defer pipeline.ArmFaults(inj)()

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, _, data := post(t, ts, RunRequest{Source: testProg, Label: "victim"})
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", code, data)
	}
	eb := decodeErr(t, data)
	if eb.Kind != KindPanic || eb.Stage != "compile" {
		t.Errorf("body = %+v, want contained compile panic", eb)
	}

	// The very next request on the same server is untouched.
	code, _, data = post(t, ts, RunRequest{Source: testProg, Label: "healthy"})
	if code != http.StatusOK {
		t.Fatalf("follow-up status %d: %s", code, data)
	}
	if got, want := decodeRun(t, data).Value, oneShot(t, testProg, opt.Base).Value; got != want {
		t.Errorf("follow-up value = %q, want %q", got, want)
	}
	if f := srv.health().Faulted; f != 1 {
		t.Errorf("faulted counter = %d", f)
	}
}

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	// One worker slot, one queue slot; a harness-stage sleep keeps the
	// worker busy deterministically.
	inj := pipeline.NewInjector(1, pipeline.FaultRule{
		Stage: pipeline.StageHarness, Program: "slow",
		Action: pipeline.FaultSleep, Delay: 300 * time.Millisecond,
	})
	defer pipeline.ArmFaults(inj)()

	srv := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const slow = 2 // fills the worker slot + the queue slot
	var wg sync.WaitGroup
	codes := make([]int, slow)
	for i := 0; i < slow; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, _ = post(t, ts, RunRequest{Source: testProg, Label: "slow"})
		}(i)
	}
	// Wait until both requests occupy the slot and the queue.
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight()+srv.waiting.Load() < slow {
		if time.Now().After(deadline) {
			t.Fatalf("slow requests never occupied the server (inflight=%d queued=%d)",
				srv.InFlight(), srv.waiting.Load())
		}
		time.Sleep(time.Millisecond)
	}

	code, hdr, data := post(t, ts, RunRequest{Source: testProg, Label: "shedme"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", code, data)
	}
	if eb := decodeErr(t, data); eb.Kind != KindOverloaded || eb.RetryAfterMS <= 0 {
		t.Errorf("body = %+v", eb)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("missing Retry-After header")
	}

	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("slow request %d: status %d", i, c)
		}
	}
	if shed := srv.health().Shed; shed != 1 {
		t.Errorf("shed counter = %d", shed)
	}
}

func TestCircuitBreakerOpensAndRecovers(t *testing.T) {
	// The program crashes the pipeline exactly 3 times (the breaker
	// threshold), then recovers — modeling a transient compiler bug.
	inj := pipeline.NewInjector(1, pipeline.FaultRule{
		Stage: pipeline.StageCompile, Program: "flaky",
		Action: pipeline.FaultPanic, Message: "crash", Limit: 3,
	})
	defer pipeline.ArmFaults(inj)()

	srv := New(Config{BreakerThreshold: 3, BreakerCooldown: 80 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := RunRequest{Source: testProg, Label: "flaky"}
	for i := 0; i < 3; i++ {
		code, _, data := post(t, ts, req)
		if code != http.StatusInternalServerError {
			t.Fatalf("crash %d: status %d: %s", i, code, data)
		}
	}

	// Circuit is open: rejected without running the pipeline.
	fired := inj.TotalFired()
	code, hdr, data := post(t, ts, req)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("open circuit: status %d: %s", code, data)
	}
	if eb := decodeErr(t, data); eb.Kind != KindCircuitOpen || eb.RetryAfterMS <= 0 {
		t.Errorf("body = %+v", eb)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("missing Retry-After header")
	}
	if inj.TotalFired() != fired {
		t.Error("rejected request still reached the pipeline")
	}
	if srv.health().CircuitsOpen != 1 {
		t.Errorf("circuits open = %d", srv.health().CircuitsOpen)
	}

	// After the cooldown the half-open trial runs; the fault rule is
	// exhausted (Limit 3), so it succeeds and closes the circuit.
	time.Sleep(100 * time.Millisecond)
	code, _, data = post(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("half-open trial: status %d: %s", code, data)
	}
	code, _, _ = post(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("closed circuit: status %d", code)
	}
	if n := srv.health().CircuitsOpen; n != 0 {
		t.Errorf("circuits open after recovery = %d", n)
	}
}

func TestBreakerIgnoresOrdinaryProgramErrors(t *testing.T) {
	srv := New(Config{BreakerThreshold: 2, BreakerCooldown: time.Minute})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bad := RunRequest{Source: "method main() { undefined_thing; }"}
	for i := 0; i < 5; i++ {
		code, _, data := post(t, ts, bad)
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("attempt %d: status %d: %s (parse errors must never open the circuit)", i, code, data)
		}
	}
}

func TestHealthzReadyzAndDrain(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, Health) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	if code, h := get("/healthz"); code != http.StatusOK || h.Status != "ok" {
		t.Errorf("healthz = %d %+v", code, h)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("readyz = %d", code)
	}

	srv.BeginDrain()
	srv.BeginDrain() // idempotent

	// Liveness stays up through a drain; readiness flips to 503.
	if code, h := get("/healthz"); code != http.StatusOK || h.Status != "draining" {
		t.Errorf("draining healthz = %d %+v", code, h)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d", code)
	}

	code, _, data := post(t, ts, RunRequest{Source: testProg})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining run: status %d: %s", code, data)
	}
	if eb := decodeErr(t, data); eb.Kind != KindDraining {
		t.Errorf("kind = %q", eb.Kind)
	}
}

func TestTimeoutCappedByServerMax(t *testing.T) {
	srv := New(Config{DefaultTimeout: time.Hour, MaxTimeout: 60 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The client asks for an hour; the cap turns the loop program into
	// a deadline error within the server max.
	start := time.Now()
	code, _, data := post(t, ts, RunRequest{Source: loopProg, TimeoutMS: 3_600_000})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", code, data)
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Errorf("request took %v despite the 60ms cap", wall)
	}
}

func TestChaosModeRules(t *testing.T) {
	// ChaosRules is what `selspec serve -chaos` arms: probabilistic
	// panics and delays drawn from a seeded PRNG.
	a := pipeline.NewInjector(42, ChaosRules(0.5, 0)...)
	b := pipeline.NewInjector(42, ChaosRules(0.5, 0)...)
	da := pipeline.ArmFaults(a)
	outcomesA := make([]bool, 32)
	for i := range outcomesA {
		_, err := pipeline.Guard(pipeline.StageHarness, fmt.Sprint(i), "Base",
			func() (int, error) { return 0, nil })
		outcomesA[i] = err != nil
	}
	da()
	db := pipeline.ArmFaults(b)
	for i := range outcomesA {
		_, err := pipeline.Guard(pipeline.StageHarness, fmt.Sprint(i), "Base",
			func() (int, error) { return 0, nil })
		if (err != nil) != outcomesA[i] {
			t.Fatalf("chaos rules not reproducible at %d", i)
		}
	}
	db()
}
