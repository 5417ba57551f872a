package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"selspec/internal/server"
)

// clients is the closed loop's size: one client per vCPU of the
// reference machine, each sending its next request when the previous
// response arrives.
const clients = 2

// windowSegments is how many segments a measured window is sent as.
const windowSegments = 5

// service is a server.Server on a loopback listener with the HTTP client
// the benchmark drives it through.
type service struct {
	url    string
	hs     *http.Server
	served chan error
	client *http.Client
}

func startService(cfg server.Config) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		url:    "http://" + ln.Addr().String() + "/run",
		hs:     &http.Server{Handler: server.New(cfg).Handler()},
		served: make(chan error, 1),
		client: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     clients,
				MaxIdleConnsPerHost: clients,
				DisableCompression:  true,
			},
		},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for it to exit.
func (s *service) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// sample is the benchmark's own span for one request.
type sample struct {
	req        *request
	start, end time.Duration // since the start of the window
	status     int
	err        error // transport failure, non-200 body, or wrong answer
}

func (s sample) latency() time.Duration { return s.end - s.start }

// send posts one request and checks the response against the oracle.
func (s *service) send(r *request) (int, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var rr server.RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return resp.StatusCode, fmt.Errorf("decode response: %w", err)
	}
	if got := (answer{rr.Value, rr.Output}); got != r.prog.want {
		return resp.StatusCode, fmt.Errorf("%s under %s: got value %q and %d output bytes, oracle has %q and %d",
			r.prog.name, r.config, got.Value, len(got.Output), r.prog.want.Value, len(r.prog.want.Output))
	}
	return resp.StatusCode, nil
}

// drive sends reqs in order from a closed loop of clients and returns
// one sample per request sent, timed from t0. No request starts later
// than cutoff after t0.
func (s *service) drive(reqs []*request, t0 time.Time, cutoff time.Duration) []sample {
	out := make([]sample, len(reqs))
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(reqs) || time.Since(t0) > cutoff {
			return -1
		}
		next++
		return next - 1
	}
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := claim(); i >= 0; i = claim() {
				start := time.Since(t0)
				status, err := s.send(reqs[i])
				out[i] = sample{req: reqs[i], start: start, end: time.Since(t0), status: status, err: err}
			}
		}()
	}
	wg.Wait()
	return out[:next]
}

// window is one measured pass over a sequence, sent as consecutive
// segments.
type window struct {
	samples  []sample
	segments []segment
}

// segment is one part of a window, timed on its own so that a run can
// report the median over its segments: a few seconds of interference
// from outside the process then move one segment, not the result.
type segment struct {
	requests, ok int
	wall         time.Duration // first send to last response
	cpu          time.Duration // process user+system time
	allocs       float64       // bytes allocated
	gcCPU        float64       // cpu-seconds spent in the garbage collector
	peakRSS      float64       // peak resident set size in bytes
	p90          float64       // 90th percentile latency in ms
}

func (w *window) add(samples []sample, sg segment) {
	w.samples = append(w.samples, samples...)
	if sg.requests > 0 {
		w.segments = append(w.segments, sg)
	}
}

// total sums the window's segments.
func (w window) total() segment {
	var t segment
	for _, s := range w.segments {
		t.requests += s.requests
		t.ok += s.ok
		t.wall += s.wall
		t.cpu += s.cpu
		t.allocs += s.allocs
		t.gcCPU += s.gcCPU
	}
	return t
}

// median is the median over the window's segments of f.
func (w window) median(f func(segment) float64) float64 {
	vs := make([]float64, len(w.segments))
	for i, s := range w.segments {
		vs[i] = f(s)
	}
	return median(vs)
}

// rps is the median over segments of successful requests per second.
func (w window) rps() float64 {
	return w.median(func(s segment) float64 { return float64(s.ok) / s.wall.Seconds() })
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() (allocs, gcCPU float64) {
	metrics.Read(runtimeSamples)
	v := func(i int) float64 {
		switch s := runtimeSamples[i].Value; s.Kind() {
		case metrics.KindUint64:
			return float64(s.Uint64())
		case metrics.KindFloat64:
			return s.Float64()
		}
		return 0
	}
	return v(0), v(1)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// resetPeakRSS restarts the kernel's record of the process's peak
// resident set size from its current size.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS is the process's peak resident set size in bytes since the
// last resetPeakRSS.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runSegment sends one segment of a window that started at t0 and
// times it.
func (s *service) runSegment(seg []*request, t0 time.Time, cutoff time.Duration) ([]sample, segment) {
	start, cpu0 := time.Since(t0), processCPU()
	a0, g0 := readRuntime()
	samples := s.drive(seg, t0, cutoff)
	a1, g1 := readRuntime()
	sg := segment{requests: len(samples), cpu: processCPU() - cpu0, allocs: a1 - a0, gcCPU: g1 - g0}
	lat := make([]float64, len(samples))
	for i, sm := range samples {
		sg.wall = max(sg.wall, sm.end-start)
		if sm.err == nil {
			sg.ok++
		}
		lat[i] = ms(sm.latency())
	}
	slices.Sort(lat)
	sg.p90 = percentile(lat, 0.9)
	return samples, sg
}

// measured is an untraced run: its window and its set-ups.
type measured struct {
	window
	setups []time.Duration
	warm   []sample
}

// measure sends the segments one after another, as a window, each to a
// server set up just before it. Spread over the run like this, the
// set-ups are not all hit by one burst of interference from outside the
// process. No request starts later than cutoff after the first set-up.
func measure(warm []*request, segs [][]*request, cutoff time.Duration) (measured, error) {
	var m measured
	t0 := time.Now()
	for _, seg := range segs {
		svc, d, ws, err := setUp(server.Config{}, warm)
		if err != nil {
			return m, err
		}
		m.setups = append(m.setups, d)
		m.warm = append(m.warm, ws...)
		// Hand the heap that earlier work left behind back to the kernel,
		// so the peak resident size is the segment's own.
		debug.FreeOSMemory()
		err = resetPeakRSS()
		if err == nil {
			samples, sg := svc.runSegment(seg, t0, cutoff)
			if sg.peakRSS, err = peakRSS(); err == nil {
				m.add(samples, sg)
			}
		}
		if serr := svc.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return m, err
		}
	}
	return m, nil
}

// setUp builds a server and sends it the warm-up requests; the elapsed
// time is the set-up time a caller of a fresh service pays.
func setUp(cfg server.Config, warm []*request) (*service, time.Duration, []sample, error) {
	t0 := time.Now()
	s, err := startService(cfg)
	if err != nil {
		return nil, 0, nil, err
	}
	samples := s.drive(warm, t0, time.Hour)
	return s, time.Since(t0), samples, nil
}
