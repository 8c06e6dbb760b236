package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testDataset synthesizes a small population for server tests.
func testDataset(t *testing.T, scale float64, seed uint64) *trace.Dataset {
	t.Helper()
	cfg := workload.ScaledConfig(scale)
	cfg.Seed = seed
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g.BuildDataset(g.GenerateSpecs())
}

// encodeBatch renders a job slice (plus its series) in the ingest format.
func encodeBatch(t *testing.T, ds *trace.Dataset, lo, hi int) *bytes.Buffer {
	t.Helper()
	batch := &trace.Dataset{Jobs: ds.Jobs[lo:hi], Series: map[int64]*trace.TimeSeries{}, DurationDays: ds.DurationDays}
	for _, j := range batch.Jobs {
		if ts := ds.Series[j.JobID]; ts != nil {
			batch.Series[j.JobID] = ts
		}
	}
	var buf bytes.Buffer
	if err := batch.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// newTestServer opens a durable store in dir (async WAL — these tests are
// about the HTTP surface, not fsync) and wraps it in a server.
func newTestServer(t *testing.T, dir string, seg trace.SegConfig, cfg serverConfig, opts durable.Options) *server {
	t.Helper()
	opts.MaxJobs = cfg.maxJobs
	store, err := durable.Open(dir, seg, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := store.Close(); err != nil && !strings.Contains(err.Error(), "closed") {
			t.Errorf("closing store: %v", err)
		}
	})
	return newServer(store, cfg)
}

// TestServerIngestQuery drives the full HTTP surface serially: batched
// ingest, stats, summary, admin seal/snapshot, and a figures render that
// matches the batch pipeline over the same jobs. Compaction is gone:
// POST /v1/compact is not found.
func TestServerIngestQuery(t *testing.T) {
	ds := testDataset(t, 0.02, 3)
	srv := newTestServer(t, t.TempDir(),
		trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 100},
		serverConfig{workers: 2}, durable.Options{})
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	step := len(ds.Jobs)/4 + 1
	lastSeq := uint64(0)
	for lo := 0; lo < len(ds.Jobs); lo += step {
		hi := lo + step
		if hi > len(ds.Jobs) {
			hi = len(ds.Jobs)
		}
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", encodeBatch(t, ds, lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: %s", resp.Status)
		}
		var ir ingestResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ir.Jobs != hi-lo || ir.TotalJobs != hi || ir.Duplicate {
			t.Fatalf("ingest ack %+v after %d jobs", ir, hi)
		}
		if lo > 0 && ir.Seq <= lastSeq {
			t.Fatalf("WAL sequence %d not monotonic (prev %d)", ir.Seq, lastSeq)
		}
		lastSeq = ir.Seq
	}

	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Jobs != len(ds.Jobs) {
		t.Fatalf("stats.jobs = %d, want %d", st.Jobs, len(ds.Jobs))
	}
	if len(st.Chain) != 64 {
		t.Fatalf("stats.chain = %q, want a 32-byte hex digest", st.Chain)
	}

	var sum summaryResponse
	getJSON(t, ts.URL+"/v1/summary", &sum)
	cols := trace.BuildColumns(ds)
	if sum.GPUJobs != len(cols.GPU) || sum.CPUJobs != len(cols.CPU) {
		t.Fatalf("summary populations %d/%d, want %d/%d", sum.GPUJobs, sum.CPUJobs, len(cols.GPU), len(cols.CPU))
	}

	for _, ep := range []string{"/v1/seal", "/v1/snapshot"} {
		resp, err := http.Post(ts.URL+ep, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s", ep, resp.Status)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/compact: %s, want 404", resp.Status)
	}

	// The rendered figures must match the batch pipeline over the same jobs.
	var wantText bytes.Buffer
	if err := report.RenderReport(&wantText, core.Characterize(ds.Columns(), 0)); err != nil {
		t.Fatal(err)
	}
	if body := figuresBody(t, ts.URL); body != wantText.String() {
		t.Errorf("figures render differs from batch pipeline (%d vs %d bytes)", len(body), wantText.Len())
	}
}

// figuresBody fetches /v1/figures and strips the header block (snapshot and
// timing lines, through the first blank line).
func figuresBody(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/figures")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	body := buf.String()
	if i := strings.Index(body, "\n\n"); i >= 0 {
		body = body[i+2:]
	}
	return body
}

// TestServerBoundedMemory pins the -max-jobs admission bound.
func TestServerBoundedMemory(t *testing.T) {
	ds := testDataset(t, 0.01, 5)
	srv := newTestServer(t, t.TempDir(),
		trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 50},
		serverConfig{workers: 1, maxJobs: len(ds.Jobs) / 2}, durable.Options{})
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", encodeBatch(t, ds, 0, len(ds.Jobs)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("over-bound ingest: %s, want 507", resp.Status)
	}
	half := len(ds.Jobs) / 2
	resp, err = http.Post(ts.URL+"/v1/ingest", "application/json", encodeBatch(t, ds, 0, half))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-bound ingest: %s", resp.Status)
	}
	if srv.store.Seg().Len() != half {
		t.Fatalf("store has %d jobs, want %d", srv.store.Seg().Len(), half)
	}
}

// TestServerIdempotentIngest pins exactly-once semantics: re-sending a body
// (same X-Batch-ID, or no ID at all — the server hashes the content) acks
// as a duplicate without growing the store.
func TestServerIdempotentIngest(t *testing.T) {
	ds := testDataset(t, 0.01, 11)
	srv := newTestServer(t, t.TempDir(),
		trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 50},
		serverConfig{workers: 1}, durable.Options{})
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	body := encodeBatch(t, ds, 0, len(ds.Jobs)).Bytes()
	var first ingestResponse
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ir ingestResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if i == 0 {
			if ir.Duplicate {
				t.Fatal("first send marked duplicate")
			}
			first = ir
			continue
		}
		if !ir.Duplicate {
			t.Fatalf("send %d not marked duplicate", i)
		}
		if ir.Seq != first.Seq || ir.Jobs != first.Jobs || ir.TotalJobs != first.TotalJobs {
			t.Fatalf("duplicate ack %+v differs from original %+v", ir, first)
		}
	}
	if srv.store.Seg().Len() != len(ds.Jobs) {
		t.Fatalf("store has %d jobs after 3 sends of one batch, want %d", srv.store.Seg().Len(), len(ds.Jobs))
	}
}

// TestServerRestartRecovers is the in-process durability round trip: ingest,
// drop the server, reopen the same data dir, and require byte-identical
// summary and figures.
func TestServerRestartRecovers(t *testing.T) {
	ds := testDataset(t, 0.02, 13)
	dir := t.TempDir()
	seg := trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 64}

	store, err := durable.Open(dir, seg, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(store, serverConfig{workers: 1})
	ts := httptest.NewServer(srv.mux())
	step := len(ds.Jobs)/5 + 1
	for lo := 0; lo < len(ds.Jobs); lo += step {
		hi := lo + step
		if hi > len(ds.Jobs) {
			hi = len(ds.Jobs)
		}
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", encodeBatch(t, ds, lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: %s", resp.Status)
		}
	}
	var wantSum summaryResponse
	getJSON(t, ts.URL+"/v1/summary", &wantSum)
	wantFigs := figuresBody(t, ts.URL)
	ts.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := durable.Open(dir, seg, durable.Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer store2.Close()
	srv2 := newServer(store2, serverConfig{workers: 1})
	ts2 := httptest.NewServer(srv2.mux())
	defer ts2.Close()

	var gotSum summaryResponse
	getJSON(t, ts2.URL+"/v1/summary", &gotSum)
	if gotSum != wantSum {
		t.Fatalf("summary after restart %+v, want %+v", gotSum, wantSum)
	}
	if got := figuresBody(t, ts2.URL); got != wantFigs {
		t.Fatalf("figures differ after restart (%d vs %d bytes)", len(got), len(wantFigs))
	}
}

// TestServerRequestLimits pins the request-policy surface: body-size cap
// (413), malformed JSON (400), method checks (405), and the health probes.
func TestServerRequestLimits(t *testing.T) {
	ds := testDataset(t, 0.005, 17)
	srv := newTestServer(t, t.TempDir(),
		trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 50},
		serverConfig{workers: 1, maxBody: 256}, durable.Options{})
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	big := encodeBatch(t, ds, 0, len(ds.Jobs))
	if big.Len() <= 256 {
		t.Fatalf("test batch only %d bytes; cannot exercise the cap", big.Len())
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %s, want 413", resp.Status)
	}
	if srv.store.Seg().Len() != 0 {
		t.Fatal("oversized body mutated the store")
	}

	resp, err = http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(`{"jobs": [`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %s, want 400", resp.Status)
	}

	// Well-formed JSON whose record JobRecord.Validate rejects.
	for _, field := range []string{`"LimitSec": -1`, `"Cores": -1`, `"CoresPerGPU": -4`, `"MemGB": -1`,
		`"Interface": 99`, `"Interface": -1`, `"Exit": 99`, `"Exit": -1`} {
		body := `{"duration_days": 1, "jobs": [{"JobID": 1, "NumGPUs": 1, "RunSec": 60, ` + field + `}]}`
		resp, err = http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("record with %s: %s, want 400", field, resp.Status)
		}
	}
	if srv.store.Seg().Len() != 0 {
		t.Fatal("a rejected record mutated the store")
	}

	resp, err = http.Post(ts.URL+"/v1/telemetry", "application/json", strings.NewReader(`{"job_id": -4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative telemetry job: %s, want 400", resp.Status)
	}

	// Wrong methods: GETs on write endpoints, POSTs on read endpoints.
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/v1/ingest"},
		{http.MethodGet, "/v1/telemetry"},
		{http.MethodGet, "/v1/seal"},
		{http.MethodGet, "/v1/snapshot"},
		{http.MethodPost, "/v1/stats"},
		{http.MethodPost, "/v1/summary"},
		{http.MethodPost, "/v1/figures"},
		{http.MethodPost, "/readyz"},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: %s, want 405", c.method, c.path, resp.Status)
		}
		if allow := resp.Header.Get("Allow"); allow == "" {
			t.Errorf("%s %s: missing Allow header", c.method, c.path)
		}
	}

	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %s, want 200", probe, resp.Status)
		}
	}
}

// TestServerBackpressure pins load shedding: once the unsealed backlog
// exceeds -backlog-max, ingest answers 429 with Retry-After and /readyz
// flips to 503, and both recover after a seal drains the backlog.
func TestServerBackpressure(t *testing.T) {
	ds := testDataset(t, 0.01, 19)
	srv := newTestServer(t, t.TempDir(),
		// SegmentJobs above the dataset size: nothing seals on its own, so
		// every ingested job sits in the backlog until /v1/seal.
		trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 1 << 20},
		serverConfig{workers: 1, backlogMax: len(ds.Jobs) / 2}, durable.Options{})
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", encodeBatch(t, ds, 0, len(ds.Jobs)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filling ingest: %s", resp.Status)
	}

	resp, err = http.Post(ts.URL+"/v1/ingest", "application/json", encodeBatch(t, ds, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-backlog ingest: %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded readyz: %s, want 503", resp.Status)
	}
	// Liveness never degrades with load.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("overloaded healthz: %s, want 200", resp.Status)
	}

	// Sealing moves the tail into immutable segments; the backlog drains.
	resp, err = http.Post(ts.URL+"/v1/seal", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seal: %s", resp.Status)
	}
	resp, err = http.Post(ts.URL+"/v1/ingest", "application/json", encodeBatch(t, ds, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-seal ingest: %s, want 200", resp.Status)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-seal readyz: %s, want 200", resp.Status)
	}
}

// TestServerStagedTelemetryDoesNotWedgeIngest: staged telemetry drains only
// when its job is ingested, so it must not count against ingest admission.
// Telemetry is shed once tail plus staged passes -backlog-max; the ingest
// of the staged jobs is still admitted and drains the staged map, and
// telemetry is admitted again after it.
func TestServerStagedTelemetryDoesNotWedgeIngest(t *testing.T) {
	ds := testDataset(t, 0.005, 29)
	const backlogMax = 5
	srv := newTestServer(t, t.TempDir(),
		trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 4},
		serverConfig{workers: 1, backlogMax: backlogMax}, durable.Options{})
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	stage := func(k int) int {
		t.Helper()
		body := fmt.Sprintf(`{"job_id": %d}`, ds.Jobs[k].JobID)
		resp, err := http.Post(ts.URL+"/v1/telemetry", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for k := 0; k <= backlogMax; k++ {
		if code := stage(k); code != http.StatusOK {
			t.Fatalf("telemetry %d: %d, want 200", k, code)
		}
	}
	if code := stage(backlogMax + 1); code != http.StatusTooManyRequests {
		t.Fatalf("telemetry past -backlog-max: %d, want 429", code)
	}

	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", encodeBatch(t, ds, 0, backlogMax+1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest of the staged jobs: %s, want 200", resp.Status)
	}
	if n := srv.store.Seg().StagedJobs(); n != 0 {
		t.Fatalf("%d telemetry records still staged after their jobs arrived", n)
	}
	if code := stage(backlogMax + 1); code != http.StatusOK {
		t.Fatalf("telemetry after the drain: %d, want 200", code)
	}
}

// TestServerConcurrentIngestQuery is a -race scenario (`make race`):
// parallel ingest writers against parallel summary/stats/figures readers,
// then a final consistency check against the batch pipeline.
func TestServerConcurrentIngestQuery(t *testing.T) {
	ds := testDataset(t, 0.02, 7)
	srv := newTestServer(t, t.TempDir(),
		trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 64},
		serverConfig{workers: 2}, durable.Options{})
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Writers own disjoint interleaved batches; ingest order across
			// writers is arbitrary, which the figures check below absorbs by
			// comparing populations, not order-sensitive bytes.
			step := len(ds.Jobs)/(writers*8) + 1
			for lo := w * step; lo < len(ds.Jobs); lo += writers * step {
				hi := lo + step
				if hi > len(ds.Jobs) {
					hi = len(ds.Jobs)
				}
				resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", encodeBatch(t, ds, lo, hi))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("ingest: %s", resp.Status)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	readerErr := make(chan error, 3)
	var rwg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var st statsResponse
				if err := getJSONErr(ts.URL+"/v1/stats", &st); err != nil {
					readerErr <- err
					return
				}
				var sum summaryResponse
				if err := getJSONErr(ts.URL+"/v1/summary", &sum); err != nil {
					readerErr <- err
					return
				}
				if sum.Jobs < st.Jobs {
					// A later snapshot can only grow; the digest may run
					// ahead of the stats read, never behind it.
					readerErr <- fmt.Errorf("summary jobs %d < earlier stats jobs %d", sum.Jobs, st.Jobs)
					return
				}
				resp, err := http.Get(ts.URL + "/v1/figures")
				if err != nil {
					readerErr <- err
					return
				}
				resp.Body.Close()
			}
		}()
	}
	rwg.Wait()
	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}

	if srv.store.Seg().Len() != len(ds.Jobs) {
		t.Fatalf("store has %d jobs, want %d", srv.store.Seg().Len(), len(ds.Jobs))
	}
	sum := srv.store.Seg().Summary()
	cols := trace.BuildColumns(ds)
	if sum.GPUJobs != len(cols.GPU) || sum.CPUJobs != len(cols.CPU) || sum.MultiGPU != len(cols.Multi) {
		t.Fatalf("populations %d/%d/%d, want %d/%d/%d",
			sum.GPUJobs, sum.CPUJobs, sum.MultiGPU, len(cols.GPU), len(cols.CPU), len(cols.Multi))
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := getJSONErr(url, v); err != nil {
		t.Fatal(err)
	}
}

func getJSONErr(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// postBatch ingests jobs [lo,hi) of ds and returns the response status.
func postBatch(t *testing.T, base string, ds *trace.Dataset, lo, hi int) int {
	t.Helper()
	resp, err := http.Post(base+"/v1/ingest", "application/json", encodeBatch(t, ds, lo, hi))
	if err != nil {
		t.Error(err)
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

// getFigures sends a figures GET and returns the response with its body
// read.
func getFigures(url string) (*http.Response, string, error) {
	resp, err := http.Get(url + "/v1/figures")
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, "", err
	}
	return resp, buf.String(), nil
}

// TestFigureCap pins the figure query cap: the queries' worker goroutines
// together stay at about GOMAXPROCS, and at least one query computes.
func TestFigureCap(t *testing.T) {
	for _, c := range []struct{ workers, procs, want int }{
		{0, 8, 1}, {1, 8, 8}, {2, 8, 4}, {3, 8, 2}, {16, 8, 1}, {0, 1, 1}, {1, 1, 1},
	} {
		if got := figureCap(c.workers, c.procs); got != c.want {
			t.Errorf("figureCap(%d, %d) = %d, want %d", c.workers, c.procs, got, c.want)
		}
	}
}

// TestServerFiguresCapShedsQueriesNotIngest saturates the figure
// computation cap and keeps querying while ingest runs: queries past the
// cap answer 429 with Retry-After, every ingest batch is acknowledged, and
// the held queries complete once released.
func TestServerFiguresCapShedsQueriesNotIngest(t *testing.T) {
	ds := testDataset(t, 0.02, 9)
	srv := newTestServer(t, t.TempDir(),
		trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 64},
		serverConfig{workers: 1}, durable.Options{})
	slots := cap(srv.figureSlots)
	held, release := make(chan struct{}, slots), make(chan struct{})
	var calls atomic.Int32
	srv.characterize = func(v *trace.SegView, w int) *core.Report {
		if calls.Add(1) <= int32(slots) {
			held <- struct{}{}
			<-release
		}
		return core.CharacterizeSeg(v, w)
	}
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()
	step := len(ds.Jobs)/16 + 1
	if st := postBatch(t, ts.URL, ds, 0, step); st != http.StatusOK {
		t.Fatalf("ingest: %d", st)
	}

	// Take every slot with a query that does not finish until released.
	var heldWG sync.WaitGroup
	for i := 0; i < slots; i++ {
		heldWG.Add(1)
		go func() {
			defer heldWG.Done()
			resp, _, err := getFigures(ts.URL)
			if err != nil {
				t.Error(err)
			} else if resp.StatusCode != http.StatusOK {
				t.Errorf("held query: %s", resp.Status)
			}
		}()
	}
	for i := 0; i < slots; i++ {
		<-held
	}

	done := make(chan struct{})
	var ingestWG sync.WaitGroup
	ingestWG.Add(1)
	go func() {
		defer ingestWG.Done()
		defer close(done)
		for lo := step; lo < len(ds.Jobs); lo += step {
			if st := postBatch(t, ts.URL, ds, lo, min(lo+step, len(ds.Jobs))); st != http.StatusOK {
				t.Errorf("ingest [%d,%d): %d while figure queries were shed", lo, lo+step, st)
			}
		}
	}()
	var queryWG sync.WaitGroup
	for q := 0; q < 4; q++ {
		queryWG.Add(1)
		go func() {
			defer queryWG.Done()
			for {
				resp, _, err := getFigures(ts.URL)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
					t.Errorf("query past the cap: %s (Retry-After %q), want 429 with Retry-After",
						resp.Status, resp.Header.Get("Retry-After"))
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	ingestWG.Wait()
	queryWG.Wait()
	close(release)
	heldWG.Wait()
	if n := srv.store.Seg().Len(); n != len(ds.Jobs) {
		t.Fatalf("store has %d jobs, want %d", n, len(ds.Jobs))
	}
	var want bytes.Buffer
	if err := report.RenderReport(&want, core.Characterize(ds.Columns(), 0)); err != nil {
		t.Fatal(err)
	}
	if got := figuresBody(t, ts.URL); got != want.String() {
		t.Fatalf("figures after the shed differ from the batch pipeline (%d vs %d bytes)", len(got), want.Len())
	}
}
