package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// scriptedServer answers each request according to a script of status
// codes; 0 means "succeed with a canned ingest ack".
type scriptedServer struct {
	t      *testing.T
	script []int
	calls  atomic.Int64
	hdr    map[string]string // extra headers on error responses
}

func (s *scriptedServer) handler(w http.ResponseWriter, r *http.Request) {
	n := int(s.calls.Add(1)) - 1
	code := 0
	if n < len(s.script) {
		code = s.script[n]
	}
	if code == 0 {
		if err := json.NewEncoder(w).Encode(Result{Seq: uint64(n), Jobs: 3, TotalJobs: 3}); err != nil {
			s.t.Error(err)
		}
		return
	}
	for k, v := range s.hdr {
		w.Header().Set(k, v)
	}
	http.Error(w, http.StatusText(code), code)
}

func newTestClient(srv *httptest.Server, opts Options) (*Client, *[]time.Duration) {
	sleeps := &[]time.Duration{}
	opts.Sleep = func(d time.Duration) { *sleeps = append(*sleeps, d) }
	if opts.BaseDelay == 0 {
		opts.BaseDelay = time.Millisecond
	}
	return New(srv.URL, opts), sleeps
}

func TestClientRetriesUntilSuccess(t *testing.T) {
	ss := &scriptedServer{t: t, script: []int{500, 503, 429}}
	srv := httptest.NewServer(http.HandlerFunc(ss.handler))
	defer srv.Close()
	c, sleeps := newTestClient(srv, Options{})
	res, err := c.IngestBody([]byte(`{"jobs":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 3 {
		t.Fatalf("res = %+v", res)
	}
	if got := ss.calls.Load(); got != 4 {
		t.Fatalf("server saw %d calls, want 4", got)
	}
	if len(*sleeps) != 3 {
		t.Fatalf("client slept %d times, want 3", len(*sleeps))
	}
}

func TestClientPermanentErrorsDoNotRetry(t *testing.T) {
	for _, code := range []int{400, 404, 405, 413, 507} {
		ss := &scriptedServer{t: t, script: []int{code, code, code}}
		srv := httptest.NewServer(http.HandlerFunc(ss.handler))
		c, _ := newTestClient(srv, Options{})
		_, err := c.IngestBody([]byte(`x`))
		srv.Close()
		var se *StatusError
		if !errors.As(err, &se) || se.Status != code {
			t.Fatalf("code %d: err = %v", code, err)
		}
		if got := ss.calls.Load(); got != 1 {
			t.Fatalf("code %d: server saw %d calls, want 1 (no retry)", code, got)
		}
	}
}

func TestClientHonorsRetryAfter(t *testing.T) {
	ss := &scriptedServer{t: t, script: []int{429}, hdr: map[string]string{"Retry-After": "2"}}
	srv := httptest.NewServer(http.HandlerFunc(ss.handler))
	defer srv.Close()
	c, sleeps := newTestClient(srv, Options{MaxDelay: 10 * time.Second})
	if _, err := c.IngestBody([]byte(`{"jobs":[]}`)); err != nil {
		t.Fatal(err)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] < 2*time.Second {
		t.Fatalf("sleeps = %v; Retry-After: 2 not honored", *sleeps)
	}
}

func TestClientAttemptCap(t *testing.T) {
	ss := &scriptedServer{t: t, script: []int{500, 500, 500, 500, 500, 500}}
	srv := httptest.NewServer(http.HandlerFunc(ss.handler))
	defer srv.Close()
	c, _ := newTestClient(srv, Options{MaxAttempts: 3})
	_, err := c.IngestBody([]byte(`x`))
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("err = %v", err)
	}
	if got := ss.calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

func TestClientSleepBudget(t *testing.T) {
	ss := &scriptedServer{t: t, script: []int{503, 503, 503, 503, 503, 503}, hdr: map[string]string{"Retry-After": "60"}}
	srv := httptest.NewServer(http.HandlerFunc(ss.handler))
	defer srv.Close()
	c, _ := newTestClient(srv, Options{MaxDelay: 2 * time.Minute, SleepBudget: 90 * time.Second})
	_, err := c.IngestBody([]byte(`x`))
	if err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("err = %v", err)
	}
	// 60s + 60s would blow the 90s budget: exactly one sleep happens.
	if got := ss.calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
}

func TestClientNetworkErrorRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // all connections refused
	c := New(srv.URL, Options{MaxAttempts: 3, BaseDelay: time.Millisecond, Sleep: func(time.Duration) {}})
	_, err := c.IngestBody([]byte(`x`))
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("err = %v", err)
	}
}

func TestBatchIDStable(t *testing.T) {
	a, b := BatchID([]byte("hello")), BatchID([]byte("hello"))
	if a != b || len(a) != 64 {
		t.Fatalf("BatchID unstable or malformed: %q vs %q", a, b)
	}
	if BatchID([]byte("other")) == a {
		t.Fatal("distinct bodies share an ID")
	}
}

func TestClientSendsBatchIDHeader(t *testing.T) {
	var gotID atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotID.Store(r.Header.Get("X-Batch-ID"))
		if err := json.NewEncoder(w).Encode(Result{}); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()
	c := New(srv.URL, Options{})
	body := []byte(`{"jobs":[]}`)
	if _, err := c.IngestBody(body); err != nil {
		t.Fatal(err)
	}
	if got := gotID.Load(); got != BatchID(body) {
		t.Fatalf("X-Batch-ID = %v, want content hash", got)
	}
}

func TestTelemetrySinkCollectsErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/v1/telemetry") {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		http.Error(w, "bad", http.StatusBadRequest)
	}))
	defer srv.Close()
	sink := &TelemetrySink{C: New(srv.URL, Options{Sleep: func(time.Duration) {}})}
	per := []metrics.MetricSummaries{{metrics.SMUtil: {Mean: 50}}}
	for i := 0; i < 3; i++ {
		sink.StageTelemetry(int64(i), per, &trace.TimeSeries{JobID: int64(i), IntervalSec: 1})
	}
	err := sink.Err()
	if err == nil || !strings.Contains(err.Error(), "3 telemetry records undelivered") {
		t.Fatalf("sink.Err() = %v", err)
	}
}

func TestTelemetrySinkDelivers(t *testing.T) {
	var bodies atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var wire telemetryWire
		if err := json.NewDecoder(r.Body).Decode(&wire); err != nil {
			t.Error(err)
		}
		if wire.JobID != 42 || wire.Series == nil {
			t.Errorf("wire = %+v", wire)
		}
		bodies.Add(1)
		fmt.Fprint(w, "{}")
	}))
	defer srv.Close()
	sink := &TelemetrySink{C: New(srv.URL, Options{})}
	sink.StageTelemetry(42, nil, &trace.TimeSeries{JobID: 42, IntervalSec: 0.1})
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if bodies.Load() != 1 {
		t.Fatal("telemetry never reached the server")
	}
}

// telemetryWire mirrors the server's /v1/telemetry request body.
type telemetryWire struct {
	JobID  int64                     `json:"job_id"`
	PerGPU []metrics.MetricSummaries `json:"per_gpu,omitempty"`
	Series *trace.TimeSeries         `json:"series,omitempty"`
}

// StageTelemetry sends one monitoring-epilog record. Staging is naturally
// idempotent (same job ID, same payload), so retries need no batch ID.
func (c *Client) StageTelemetry(jobID int64, perGPU []metrics.MetricSummaries, ts *trace.TimeSeries) error {
	body, err := json.Marshal(telemetryWire{JobID: jobID, PerGPU: perGPU, Series: ts})
	if err != nil {
		return err
	}
	return c.do("/v1/telemetry", nil, body, nil)
}

// TelemetrySink adapts Client to a StageTelemetry hook that returns
// nothing — the caller fires epilogs without waiting on storage. Errors are
// collected instead of lost; check Err after the run.
type TelemetrySink struct {
	C *Client

	mu      sync.Mutex
	errs    []error
	dropped int
}

// StageTelemetry sends one record, collecting any error.
func (s *TelemetrySink) StageTelemetry(jobID int64, perGPU []metrics.MetricSummaries, ts *trace.TimeSeries) {
	if err := s.C.StageTelemetry(jobID, perGPU, ts); err != nil {
		s.mu.Lock()
		if len(s.errs) < 8 {
			s.errs = append(s.errs, fmt.Errorf("job %d: %w", jobID, err))
		}
		s.dropped++
		s.mu.Unlock()
	}
}

// Err reports the first delivery errors and the total count, or nil if
// every record was delivered.
func (s *TelemetrySink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropped == 0 {
		return nil
	}
	return fmt.Errorf("client: %d telemetry records undelivered; first: %w", s.dropped, s.errs[0])
}
