// Command simcloudd is the always-on counterpart of simcloud: a
// long-running HTTP service that ingests job records into the segmented
// columnar store (trace.SegStore) and answers live figure queries while
// ingest continues — the architectural target of ROADMAP item 1, shaped
// like the system-wide telemetry services the paper's operational sections
// describe.
//
// The store is durable: every ingest batch and telemetry record is
// committed to a CRC-framed, hash-chained write-ahead log (internal/durable)
// before it is applied, and the store checkpoints into snapshots. Only the
// commit (admission, WAL append, apply) is serialized: ingest bodies are
// decoded before it, and a checkpoint is written after it, so concurrent
// ingests keep committing while either runs. Kill the process at any
// instant and restarting with the same -data-dir recovers a store whose
// every query answer is byte-identical to one that never crashed — the
// chaos harness (make chaos) proves exactly that. Batches carry client IDs
// (X-Batch-ID, defaulting to the body's SHA-256), so a client retrying an
// ambiguous failure is applied exactly once.
//
// Ingest appends are O(tail): sealed segments are immutable, their sorted
// views are cached once and merged (never re-sorted) at query time, and a
// query between appends reuses the memoized snapshot outright. The summary
// digest is folded at append in job order, so it is O(1) to answer and the
// same however the store sealed. Memory is bounded by -max-jobs (ingest past
// the bound is rejected with 507). Overload is shed with 429 + Retry-After:
// ingest once the unsealed tail passes -backlog-max, telemetry once the tail
// plus staged telemetry does. Request bodies are capped at -max-body-bytes
// (413). -max-segments is ignored; it is kept only so that existing command
// lines and the benchmark harness still parse. Figure queries are bounded
// too: at most GOMAXPROCS / -workers of them (at least one) compute at
// once, and the rest are shed with 429 + Retry-After.
//
// Usage:
//
//	simcloudd -addr :8080 -data-dir /var/lib/simcloudd
//	tracegen -scale 0.05 -json | curl -sS --data-binary @- localhost:8080/v1/ingest
//	curl -sS localhost:8080/v1/summary   # O(1) streaming digest
//	curl -sS localhost:8080/v1/figures   # full characterization suite
//
// Endpoints:
//
//	POST /v1/ingest     JSON dataset (tracegen -json / simcloud -out format);
//	                    idempotent per X-Batch-ID; 400/413/429/507 on bad,
//	                    oversized, shed, or over-bound batches
//	POST /v1/telemetry  one monitoring-epilog record (job_id, per_gpu,
//	                    series), staged for the §II job-ID join
//	GET  /v1/stats      store geometry: jobs, segments, tail, staged, WAL
//	GET  /v1/summary    append-order digest (counts, moments) as JSON
//	GET  /v1/figures    full figure suite over a snapshot (text tables);
//	                    429 while the query cap is computing
//	POST /v1/seal       seal the tail now (admin; a performance hint that
//	                    drains the backlog, not logged)
//	POST /v1/snapshot   checkpoint now (admin)
//	GET  /healthz       liveness: 200 while the process serves
//	GET  /readyz        readiness: 503 while draining or shedding ingest
//
// On SIGTERM/SIGINT the server drains: stops accepting work, finishes
// in-flight requests, flushes the WAL, writes a final snapshot and exits.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simcloudd: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run is main minus the exit: flag parsing, recovery, serving, drain. The
// chaos harness re-execs the test binary into this function, so everything
// a real deployment does must happen here.
func run(args []string) error {
	fs := flag.NewFlagSet("simcloudd", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		dataDir     = fs.String("data-dir", "", "durable data directory (WAL + snapshots); empty = ephemeral temp dir")
		walSync     = fs.String("wal-sync", "always", "fsync policy for WAL appends: always | off")
		rotateBytes = fs.Int64("wal-rotate-bytes", durable.DefaultRotateBytes, "WAL file rotation threshold")
		snapJobs    = fs.Int("snapshot-jobs", 100_000, "checkpoint automatically every N ingested jobs (0 = only on shutdown)")
		segmentJobs = fs.Int("segment-jobs", trace.DefaultSegmentJobs, "seal the mutable tail every N jobs")
		maxSegments = fs.Int("max-segments", 64, "ignored; kept so existing command lines and the benchmark harness still parse")
		maxJobs     = fs.Int("max-jobs", 2_000_000, "reject ingest beyond N stored jobs (0 = unbounded)")
		backlogMax  = fs.Int("backlog-max", 500_000, "shed ingest (429) while unsealed backlog exceeds N (0 = never)")
		maxBody     = fs.Int64("max-body-bytes", 64<<20, "reject request bodies larger than N bytes (413)")
		days        = fs.Float64("days", 125, "observation window for figure normalization")
		workers     = fs.Int("workers", 0, "worker goroutines per figure query (0 = GOMAXPROCS); GOMAXPROCS/N queries compute at once")
		grace       = fs.Duration("shutdown-grace", 10*time.Second, "drain deadline after SIGTERM")
		chaosSpec   = fs.String("chaos", "", "failure-injection spec (testing only; see internal/durable)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *walSync != "always" && *walSync != "off" {
		return fmt.Errorf("-wal-sync must be 'always' or 'off', got %q", *walSync)
	}
	chaos, err := durable.ParseChaos(*chaosSpec)
	if err != nil {
		return err
	}
	dir := *dataDir
	if dir == "" {
		dir, err = os.MkdirTemp("", "simcloudd-")
		if err != nil {
			return err
		}
		log.Printf("no -data-dir: ephemeral store in %s", dir)
	}

	store, err := durable.Open(dir, trace.SegConfig{
		DurationDays: *days,
		SegmentJobs:  *segmentJobs,
		MaxSegments:  *maxSegments,
	}, durable.Options{
		Sync:         *walSync == "always",
		RotateBytes:  *rotateBytes,
		SnapshotJobs: *snapJobs,
		MaxJobs:      *maxJobs,
		Chaos:        chaos,
	})
	if err != nil {
		return fmt.Errorf("recovering %s: %w", dir, err)
	}

	srv := newServer(store, serverConfig{
		workers:    *workers,
		maxJobs:    *maxJobs,
		backlogMax: *backlogMax,
		maxBody:    *maxBody,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.mux(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute, // figure renders on huge stores are slow
		IdleTimeout:       2 * time.Minute,
	}
	// The chaos harness scrapes this exact line for the bound port.
	log.Printf("listening on %s (data-dir=%s wal-sync=%s segment-jobs=%d max-jobs=%d backlog-max=%d)",
		ln.Addr(), dir, *walSync, *segmentJobs, *maxJobs, *backlogMax)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	log.Printf("draining (grace %s)", *grace)
	srv.draining.Store(true)
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	// Flush + final snapshot: the next start recovers without replay.
	if err := store.Close(); err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	log.Printf("drained: WAL flushed, snapshot written")
	return nil
}

type serverConfig struct {
	workers    int
	maxJobs    int
	backlogMax int
	maxBody    int64
}

// server holds the durable store and the request policy. All handlers are
// safe for concurrent use: the store serializes each mutation's commit
// internally (decoding and snapshot writes run outside that lock) and
// query snapshots are immutable.
type server struct {
	store    *durable.Store
	cfg      serverConfig
	draining atomic.Bool
	// figureSlots holds one token per figure query computing.
	figureSlots chan struct{}
	// characterize computes a figure query; tests hold it to fill the cap.
	characterize func(v *trace.SegView, workers int) *core.Report
}

func newServer(store *durable.Store, cfg serverConfig) *server {
	if cfg.maxBody <= 0 {
		cfg.maxBody = 64 << 20
	}
	return &server{
		store:        store,
		cfg:          cfg,
		figureSlots:  make(chan struct{}, figureCap(cfg.workers, runtime.GOMAXPROCS(0))),
		characterize: core.CharacterizeSeg,
	}
}

// figureCap is the number of figure queries computed at once: procs /
// workers, at least one, so the queries' worker goroutines together stay
// at about GOMAXPROCS (procs). A query runs on workers goroutines, and
// on procs of them when workers is 0.
func figureCap(workers, procs int) int {
	if workers <= 0 {
		workers = procs
	}
	return max(1, procs/workers)
}

func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/v1/ingest", s.handleIngest)
	m.HandleFunc("/v1/telemetry", s.handleTelemetry)
	m.HandleFunc("/v1/stats", getOnly(s.handleStats))
	m.HandleFunc("/v1/summary", getOnly(s.handleSummary))
	m.HandleFunc("/v1/figures", getOnly(s.handleFigures))
	m.HandleFunc("/v1/seal", s.handleSeal)
	m.HandleFunc("/v1/snapshot", s.handleSnapshot)
	m.HandleFunc("/healthz", s.handleHealthz)
	m.HandleFunc("/readyz", getOnly(s.handleReadyz))
	return m
}

// getOnly rejects non-GET methods with 405 (HEAD rides along for free).
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET")
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// admitWrite runs the write-path gate: drain state, then shedding while
// backlog exceeds -backlog-max. It reports whether the request may
// proceed. Ingest passes the unsealed tail alone: staged telemetry drains
// only when its job is ingested, so counting it would let a full staging
// map refuse, for good, the ingest that drains it. Telemetry passes the
// whole Backlog, which bounds the staged map.
func (s *server) admitWrite(w http.ResponseWriter, backlog int) bool {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return false
	}
	if s.cfg.backlogMax > 0 && backlog > s.cfg.backlogMax {
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("backlog %d exceeds -backlog-max %d", backlog, s.cfg.backlogMax),
			http.StatusTooManyRequests)
		return false
	}
	return true
}

// readBody reads a request body under the -max-body-bytes cap, mapping an
// overrun to 413. A false return means the response is already written.
func (s *server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.maxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("body exceeds -max-body-bytes %d", mbe.Limit),
				http.StatusRequestEntityTooLarge)
			return nil, false
		}
		http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

// ingestResponse reports one ingest batch's outcome. Field names are the
// wire contract of durable/client.Result.
type ingestResponse struct {
	Seq       uint64 `json:"seq"`
	Jobs      int    `json:"jobs"`
	TotalJobs int    `json:"total_jobs"`
	Segments  int    `json:"segments"`
	Duplicate bool   `json:"duplicate"`
}

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.admitWrite(w, s.store.Seg().TailJobs()) {
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	id := r.Header.Get("X-Batch-ID")
	if id == "" {
		// Content-hash fallback: blind retries of the same bytes still
		// dedup even from clients that never heard of batch IDs.
		id = fmt.Sprintf("%x", sha256.Sum256(body))
	}
	out, dup, err := s.store.IngestBatch(id, body)
	if err != nil {
		var de *durable.DecodeError
		var ce *trace.CapacityError
		switch {
		case errors.As(err, &de):
			http.Error(w, fmt.Sprintf("decode: %v", de.Err), http.StatusBadRequest)
		case errors.As(err, &ce):
			http.Error(w, ce.Error(), http.StatusInsufficientStorage)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	writeJSON(w, ingestResponse{
		Seq:       out.Seq,
		Jobs:      out.Jobs,
		TotalJobs: s.store.Seg().Len(),
		Segments:  s.store.Seg().Segments(),
		Duplicate: dup,
	})
}

// telemetryRequest is the wire form of one monitoring-epilog record; it
// matches durable/client's encoding.
type telemetryRequest struct {
	JobID  int64                     `json:"job_id"`
	PerGPU []metrics.MetricSummaries `json:"per_gpu,omitempty"`
	Series *trace.TimeSeries         `json:"series,omitempty"`
}

func (s *server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.admitWrite(w, s.store.Backlog()) {
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req telemetryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, fmt.Sprintf("decode: %v", err), http.StatusBadRequest)
		return
	}
	if req.JobID < 0 {
		http.Error(w, "negative job_id", http.StatusBadRequest)
		return
	}
	if err := s.store.StageTelemetry(req.JobID, req.PerGPU, req.Series); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]int{"staged": s.store.Seg().StagedJobs()})
}

// statsResponse is the store-geometry view.
type statsResponse struct {
	Jobs     int    `json:"jobs"`
	MaxJobs  int    `json:"max_jobs"`
	Segments int    `json:"segments"`
	TailJobs int    `json:"tail_jobs"`
	Staged   int    `json:"staged_telemetry"`
	Gen      uint64 `json:"generation"`
	Backlog  int    `json:"backlog"`
	WALBytes int64  `json:"wal_bytes"`
	Chain    string `json:"chain"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	v := s.store.Seg().Snapshot()
	chain := s.store.ChainHead()
	writeJSON(w, statsResponse{
		Jobs:     v.NJobs,
		MaxJobs:  s.cfg.maxJobs,
		Segments: v.Segments,
		TailJobs: v.TailJobs,
		Staged:   s.store.Seg().StagedJobs(),
		Gen:      v.Gen,
		Backlog:  s.store.Backlog(),
		WALBytes: s.store.WALBytes(),
		Chain:    fmt.Sprintf("%x", chain[:]),
	})
}

// summaryResponse flattens the store's digest for JSON consumers.
type summaryResponse struct {
	Jobs     int `json:"jobs"`
	GPUJobs  int `json:"gpu_jobs"`
	CPUJobs  int `json:"cpu_jobs"`
	MultiGPU int `json:"multi_gpu_jobs"`

	TotalGPUHours float64 `json:"total_gpu_hours"`
	MeanWaitSec   float64 `json:"mean_wait_sec"`
	MeanRunMin    float64 `json:"mean_run_min"`
	MeanSMPct     float64 `json:"mean_sm_util_pct"`
}

func (s *server) handleSummary(w http.ResponseWriter, r *http.Request) {
	sum := s.store.Seg().Summary()
	resp := summaryResponse{
		Jobs:     sum.Jobs,
		GPUJobs:  sum.GPUJobs,
		CPUJobs:  sum.CPUJobs,
		MultiGPU: sum.MultiGPU,

		TotalGPUHours: sum.GPUHours.Sum(),
	}
	if sum.GPUJobs > 0 {
		resp.MeanWaitSec = sum.WaitSec.Mean()
		resp.MeanRunMin = sum.RunMin.Mean()
		resp.MeanSMPct = sum.MeanUtil[0].Mean()
	}
	writeJSON(w, resp)
}

// handleFigures answers the figure suite over the current snapshot. At
// most cap(figureSlots) queries compute at once; past that a query is shed
// with 429 + Retry-After, as ingest is past -backlog-max.
func (s *server) handleFigures(w http.ResponseWriter, r *http.Request) {
	select {
	case s.figureSlots <- struct{}{}:
	default:
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("%d figure queries already computing", cap(s.figureSlots)), http.StatusTooManyRequests)
		return
	}
	defer func() { <-s.figureSlots }()
	start := time.Now() //lint:allow nowallclock server-side query latency, not simulation time
	v := s.store.Seg().Snapshot()
	rep := s.characterize(v, s.cfg.workers)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	queryMS := float64(time.Since(start).Microseconds()) / 1000 //lint:allow nowallclock server-side query latency, not simulation time
	// The timing line is deliberately separate from the snapshot line: the
	// chaos harness byte-compares figure output across recoveries after
	// stripping this header block (everything through the first blank line).
	fmt.Fprintf(w, "# snapshot: %d jobs, %d segments (+%d tail)\n# query: %.1f ms\n\n",
		v.NJobs, v.Segments, v.TailJobs, queryMS)
	if err := report.RenderReport(w, rep); err != nil {
		// Headers are gone; all we can do is log.
		log.Printf("figures: %v", err)
	}
}

func (s *server) handleSeal(w http.ResponseWriter, r *http.Request) {
	s.handleAdmin(w, r, s.store.SealTail)
}

func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.handleAdmin(w, r, s.store.Snapshot)
}

func (s *server) handleAdmin(w http.ResponseWriter, r *http.Request, op func() error) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if err := op(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]int{"segments": s.store.Seg().Segments()})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: answering at all is the signal. Never load-dependent, so
	// an overloaded server is not killed by its supervisor mid-backlog.
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports whether the server would admit an ingest now: not
// draining, and the unsealed tail within -backlog-max, the test admitWrite
// applies to /v1/ingest. Staged telemetry does not count, because it
// drains only when its job is ingested: telemetry for a job that never
// arrives would otherwise hold the server unready for good.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	backlog := s.store.Seg().TailJobs()
	if s.cfg.backlogMax > 0 && backlog > s.cfg.backlogMax {
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("backlog %d exceeds bound %d", backlog, s.cfg.backlogMax),
			http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, map[string]int{"backlog": backlog})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("encode: %v", err)
	}
}
