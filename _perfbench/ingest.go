package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/durable/client"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
)

// serverShape is one server workload: simcloudd as a subprocess recovering
// a seeded data dir, driven over HTTP by this process. A run is `rounds`
// rounds, each against a fresh server on a fresh copy of the data dir doing
// the same fixed work, and reports medians over them, so one slow process
// lifetime does not move the result; each round is also one set-up
// measurement.
type serverShape struct {
	name     string
	snapJobs int // simcloudd -snapshot-jobs
	clients  int // closed-loop ingest clients
	rounds   int
	// batchesPerSec fixes the ingest work of a run at seconds*batchesPerSec
	// batches (the nominal rate on a 2-core host), split evenly over the
	// rounds, so two commits do the same work and cross the same
	// checkpoints.
	batchesPerSec float64
	// queryRate is the open-loop GET /v1/figures rate per second, sent for
	// as long as ingest runs.
	queryRate float64
}

var (
	// ingestWL: two closed-loop clients. Recovery leaves 9k jobs dirty,
	// so each round checkpoints on its first batch, while the store is
	// small, and ingests the rest of its 10k jobs without another: decode,
	// WAL, append, seal and checkpoint do the work, no queries run, and the
	// process's peak memory is the grown store rather than a checkpoint
	// buffer whose size depends on when the collector last ran.
	ingestWL = &serverShape{name: "ingest", snapJobs: 10_000, clients: 2, rounds: 20, batchesPerSec: 20}
	// ingestQueryWL: one closed-loop ingest client beside an open loop of
	// dashboard queries; no checkpoint falls inside the run. The query rate
	// is a fifth of what one connection can be served at on a 2-core host
	// (/v1/figures answers in ~50 ms at this store size, ~20/s), so queries
	// measure the query path beside ingest rather than their own queueing.
	ingestQueryWL = &serverShape{name: "ingest-query", snapJobs: 1_000_000, clients: 1, rounds: 3, batchesPerSec: 24, queryRate: 4}
)

// roundBatches is the fixed number of batches one round sends.
func (sw *serverShape) roundBatches(seconds float64) int {
	return max(1, int(seconds*sw.batchesPerSec)/sw.rounds)
}

func serverSegConfig(days float64) trace.SegConfig {
	return trace.SegConfig{DurationDays: days, SegmentJobs: trace.DefaultSegmentJobs, MaxSegments: 64}
}

// buildTemplate writes the seeded data dir: a snapshot covering the first
// in.snapAt seed batches plus a WAL suffix with the rest. It returns the
// suffix's job count, which recovery replays.
func buildTemplate(dir string, in *serverInputs) (int, error) {
	st, err := durable.Open(dir, in.cfg, durable.Options{})
	if err != nil {
		return 0, err
	}
	suffix := 0
	for i, b := range in.seed {
		if _, _, err := st.IngestBatch(client.BatchID(b.body), b.body); err != nil {
			return 0, err
		}
		if i >= in.snapAt {
			suffix += len(b.ds.Jobs)
		}
		if i+1 == in.snapAt {
			if err := st.Snapshot(); err != nil {
				return 0, err
			}
		}
	}
	return suffix, st.CloseNoSnapshot()
}

// poolBatch returns the i-th batch a run sends and its ID, the content hash
// durable/client sends.
func (in *serverInputs) poolBatch(i int) (batch, string) {
	return in.pool[i], client.BatchID(in.pool[i].body)
}

// send is one ingest request of a run.
type send struct {
	idx int // position in the run's batch sequence
	out outcome
}

// drive sends n batches over the workload's ingest clients, with the query
// schedule running beside them, and returns every send and query, the wall
// time until the last ack, and how late the query generator ran.
func (sw *serverShape) drive(base string, in *serverInputs, n int) ([]send, []outcome, float64, float64) {
	ingestC := newClient(sw.clients)
	var (
		next  atomic.Int64
		mu    sync.Mutex
		sends []send
		wg    sync.WaitGroup
		wall  float64
	)
	t0 := time.Now()
	for c := 0; c < sw.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				b, id := in.poolBatch(int(i))
				o := post(ingestC, base, id, b.body, time.Now())
				mu.Lock()
				sends = append(sends, send{idx: int(i), out: o})
				mu.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		wall = time.Since(t0).Seconds()
		close(done)
	}()

	var (
		queries []outcome
		late    float64
	)
	if sw.queryRate > 0 {
		// Independent dashboard users on one connection: query k is due at
		// k/rate whatever happened before, and its latency counts from then.
		queryC := newClient(1)
	schedule:
		for k := 0; ; k++ {
			due := t0.Add(time.Duration(float64(k) / sw.queryRate * float64(time.Second)))
			select {
			case <-done:
				break schedule
			case <-time.After(time.Until(due)):
			}
			late = max(late, time.Since(due).Seconds())
			_, status, _ := get(queryC, base+"/v1/figures")
			queries = append(queries, outcome{status: status, lat: time.Since(due).Seconds()})
		}
	}
	<-done
	return sends, queries, wall, late
}

func (sw *serverShape) describe(in *serverInputs, seconds float64) {
	loop := fmt.Sprintf("%d closed-loop ingest clients", sw.clients)
	if sw.queryRate > 0 {
		loop += fmt.Sprintf(" + open-loop GET /v1/figures at %g/s on 1 connection", sw.queryRate)
	}
	fmt.Printf("workload %s: %s; %d rounds of %d %d-job batches; data dir %d jobs (%d in snapshot); flags %s\n",
		sw.name, loop, sw.rounds, sw.roundBatches(seconds), batchJobs, len(in.seed)*batchJobs, in.snapAt*batchJobs,
		strings.Join(serverArgs("<dir>", sw.snapJobs, in.cfg), " "))
	fmt.Printf("input hash (request bodies): %s\n", in.hash)
}

func (sw *serverShape) untraced(ctx context.Context, e *env) (*result, error) {
	in, _, err := generateServerInputs(ctx, e.seed, sw.roundBatches(e.seconds))
	if err != nil {
		return nil, err
	}
	sw.describe(in, e.seconds)
	tmpl := filepath.Join(e.work, "template")
	if _, err := buildTemplate(tmpl, in); err != nil {
		return nil, err
	}

	ok := true
	var (
		readies, rss, tput []float64
		ackLat, queryLat   []float64
		late               float64
		attempted, failed  int
		ackedJobs, busy    float64
	)
	for r := 0; r < sw.rounds; r++ {
		dir := filepath.Join(e.work, fmt.Sprintf("data%d", r))
		if err := copyDir(tmpl, dir); err != nil {
			return nil, err
		}
		srv, err := startServer(e.simcloudd, serverArgs(dir, sw.snapJobs, in.cfg))
		if err != nil {
			return nil, err
		}
		runtime.GC()
		sends, queries, wall, l := sw.drive(srv.base, in, sw.roundBatches(e.seconds))
		rss = append(rss, srv.peakRSSMB())
		good, err := sw.oracle(srv.base, in, sends)
		srv.kill()
		if err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		ok = ok && good
		readies = append(readies, srv.ready)
		late = max(late, l)
		acked := 0
		for _, s := range sends {
			if s.out.ok() {
				acked += s.out.ack.Jobs
				ackLat = append(ackLat, s.out.lat)
			} else {
				failed++
			}
		}
		for _, q := range queries {
			if q.ok() {
				queryLat = append(queryLat, q.lat)
			} else {
				failed++
			}
		}
		attempted += len(sends) + len(queries)
		tput = append(tput, float64(acked)/wall)
		ackedJobs += float64(acked)
		busy += wall
	}

	printTail("ingest ack", ackLat, 0.99)
	op := ackLat
	if sw.queryRate > 0 {
		printTail("query (from due time)", queryLat, 0.95)
		fmt.Printf("query generator ran at most %.3f s late\n", late)
		op = queryLat
	}
	fmt.Printf("ops_failed_frac: %d of %d\n", failed, attempted)
	fmt.Printf("per round: set-up %.3f s, peak RSS %.1f MB, jobs/s %.0f\n", readies, rss, tput)
	// Throughput pools every round's jobs and time. Peak memory is the mean
	// over rounds: a round's peak falls in one of two modes, depending on
	// whether a collection ran before the first checkpoint's buffers peaked,
	// so a median over rounds flips between the modes from run to run.
	m := map[string]metric{
		"setup_s":     {stats.Median(readies), "s"},
		"peak_rss_mb": {stats.Mean(rss), "MB"},
		"jobs_per_s":  {ackedJobs / busy, "1/s"},
		"op_p50_ms":   {stats.Median(op) * 1000, "ms"},
	}
	printMetrics("end-to-end metrics:", m)
	return &result{Correct: ok && failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// printTail prints a latency median and tail percentile with the sample
// count; the tail is printed only when at least ten samples lie beyond it.
func printTail(what string, lat []float64, p float64) {
	if len(lat) == 0 {
		return
	}
	line := fmt.Sprintf("%s latency: n=%d p50 %.2f ms", what, len(lat), 1000*stats.Median(lat))
	if float64(len(lat))*(1-p) >= 10 {
		line += fmt.Sprintf(" p%g %.2f ms", 100*p, 1000*stats.Quantile(lat, p))
	}
	fmt.Println(line)
}

// summaryResponse mirrors simcloudd's /v1/summary body.
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

func summaryJSON(sum trace.SegSummary) []byte {
	resp := summaryResponse{Jobs: sum.Jobs, GPUJobs: sum.GPUJobs, CPUJobs: sum.CPUJobs, MultiGPU: sum.MultiGPU, TotalGPUHours: sum.GPUHours.Sum()}
	if sum.GPUJobs > 0 {
		resp.MeanWaitSec = sum.WaitSec.Mean()
		resp.MeanRunMin = sum.RunMin.Mean()
		resp.MeanSMPct = sum.MeanUtil[0].Mean()
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
	return buf.Bytes()
}

// stripHeader drops /v1/figures' snapshot/timing block (through the first
// blank line), as the chaos harness does.
func stripHeader(b []byte) []byte {
	if i := bytes.Index(b, []byte("\n\n")); i >= 0 {
		return b[i+2:]
	}
	return b
}

// renderFigures is the in-process answer to /v1/figures after the header.
func renderFigures(st *trace.SegStore) ([]byte, error) {
	var buf bytes.Buffer
	if err := report.RenderReport(&buf, core.CharacterizeSeg(st.Snapshot(), workers)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// oracle checks the server against an in-process SegStore fed the seeded
// batches and then every acknowledged batch in WAL order: /v1/summary and
// /v1/figures must match byte for byte, no ack may be a duplicate, and the
// store must hold the seeded jobs plus the sent ones.
func (sw *serverShape) oracle(base string, in *serverInputs, sends []send) (bool, error) {
	ok := true
	var acked []send
	for _, s := range sends {
		if !s.out.ok() {
			continue
		}
		if s.out.ack.Duplicate {
			fmt.Printf("FAIL batch %d acked as duplicate\n", s.idx)
			ok = false
		}
		acked = append(acked, s)
	}
	sort.Slice(acked, func(a, b int) bool { return acked[a].out.ack.Seq < acked[b].out.ack.Seq })

	ref := trace.NewSegStore(in.cfg)
	for _, b := range in.seed {
		ref.AppendDataset(b.ds)
	}
	maxTotal := 0
	for _, s := range acked {
		b, _ := in.poolBatch(s.idx)
		ref.AppendDataset(b.ds)
		maxTotal = max(maxTotal, s.out.ack.TotalJobs)
	}
	if maxTotal != ref.Len() {
		fmt.Printf("FAIL total_jobs %d, want seeded+sent %d\n", maxTotal, ref.Len())
		ok = false
	}

	c := newClient(1)
	gotSum, _, err := get(c, base+"/v1/summary")
	if err != nil {
		return false, err
	}
	if want := summaryJSON(ref.Summary()); !bytes.Equal(gotSum, want) {
		fmt.Printf("FAIL /v1/summary differs from the in-process store:\n got %s\nwant %s\n", gotSum, want)
		ok = false
	}
	gotFigs, _, err := get(c, base+"/v1/figures")
	if err != nil {
		return false, err
	}
	want, err := renderFigures(ref)
	if err != nil {
		return false, err
	}
	if !bytes.Equal(stripHeader(gotFigs), want) {
		fmt.Printf("FAIL /v1/figures differs from the in-process store (%d vs %d bytes)\n", len(stripHeader(gotFigs)), len(want))
		ok = false
	}
	fmt.Printf("oracle: %d acked batches, store %d jobs, summary+figures match=%v\n", len(acked), ref.Len(), ok)
	return ok, nil
}

func (sw *serverShape) traced(ctx context.Context, e *env) (*result, error) {
	n := probeBatches(e.seconds)
	in, inputFP, err := generateServerInputs(ctx, e.seed, n)
	if err != nil {
		return nil, err
	}
	sw.describe(in, e.seconds)
	tmpl := filepath.Join(e.work, "template")
	suffix, err := buildTemplate(tmpl, in)
	if err != nil {
		return nil, err
	}
	tr := newTracer(fmt.Sprintf("%s-seed%d", sw.name, e.seed))

	// Simulation layers: the replications behind the request bodies, traced
	// layer by layer, must reproduce the inputs the server was sent.
	t, err := serverGen.runReps(ctx, e.seed, in.reps, tr, workers)
	if err != nil {
		return nil, err
	}
	ok, _, tracedTime := t.checkPaired()
	if got := t.batch.Merged.Fingerprint(); got != inputFP {
		fmt.Printf("FAIL traced input replications fingerprint %s != %s\n", got, inputFP)
		ok = false
	}
	ok = serverGen.probeMonitor(ctx, tr, e.seed, t.keep) && ok

	ip, err := ingestProbe(ctx, e, tr, probeInput{cfg: in.cfg, template: tmpl, seed: in.seed, suffix: suffix, batches: in.pool[:n], snapJobs: ingestWL.snapJobs})
	if err != nil {
		return nil, err
	}
	if err := tr.write(traceFile(e)); err != nil {
		return nil, err
	}
	lt := summarize(tr.snapshot())
	m := map[string]metric{}
	simLayerMetrics(m, lt, t)
	ip.metrics(m, lt)
	_, simOK := lt.reconcile("simulation (input replications)", simLayers, tracedTime, reconcileTol)
	unattr, recOK := ip.reconcile(lt)
	m["bench.trace_overhead_frac"] = metric{ip.overhead, "ratio"}
	m["bench.unattributed_frac"] = metric{unattr, "ratio"}
	printMetrics("per-layer metrics:", m)
	failed := len(t.batch.Failed()) + ip.failed
	return &result{Correct: ok && simOK && recOK && ip.ok && failed == 0, Attempted: in.reps + ip.attempted, Failed: failed, Metrics: m}, nil
}

// probeBatches is how many batches a traced run's ingest probe sends: two
// ingest rounds' worth.
func probeBatches(seconds float64) int { return max(16, 2*ingestWL.roundBatches(seconds)) }

// probeInput is a batch sequence for the ingest-layer probe.
type probeInput struct {
	cfg      trace.SegConfig
	template string  // data dir the server and the replay start from; "" = empty
	seed     []batch // the template's contents, in order
	suffix   int     // jobs the template's WAL suffix replays (the store's dirty count after Open)
	batches  []batch
	snapJobs int
}

// probeResult is what the ingest-layer probe measured outside the tracer.
type probeResult struct {
	httpAcks                 []float64
	rejected429, rejected5xx int
	attempted, failed        int
	ok                       bool
	overhead                 float64 // traced replay time over untraced, minus one
	walBytesPerJob           float64
	segments, seals          int
	checkpoints              int
	reportBytes              int
}

// queryProbes is how many figure queries the replay interleaves.
const queryProbes = 4

// ingestProbe measures the ingest path layer by layer. simcloudd's
// internals cannot be reached from another process, so after an HTTP pass
// (client-observed ack latency) the same batch sequence is replayed
// in-process through durable.Open/IngestBatch/Snapshot — untraced and
// traced, for the tracing overhead — and through the component functions
// IngestBatch is made of: trace.ReadJSON, WAL framing (durable.AppendRecord
// + Chain.Next), SegStore append and seal.
func ingestProbe(ctx context.Context, e *env, tr *tracer, pi probeInput) (*probeResult, error) {
	pr := &probeResult{ok: true}
	dir := func(name string) (string, error) {
		d := filepath.Join(e.work, "probe-"+name)
		if pi.template == "" {
			return d, os.MkdirAll(d, 0o755)
		}
		return d, copyDir(pi.template, d)
	}
	id := func(i int) string { return client.BatchID(pi.batches[i].body) }

	// HTTP pass: one client, sequential.
	hd, err := dir("http")
	if err != nil {
		return nil, err
	}
	srv, err := startServer(e.simcloudd, serverArgs(hd, pi.snapJobs, pi.cfg))
	if err != nil {
		return nil, err
	}
	c := newClient(1)
	for i, b := range pi.batches {
		o := post(c, srv.base, id(i), b.body, time.Now())
		pr.attempted++
		switch {
		case o.ok() && !o.ack.Duplicate:
			pr.httpAcks = append(pr.httpAcks, o.lat)
		case o.ok():
			fmt.Printf("FAIL probe batch %d acked as duplicate\n", i)
			pr.ok = false
		default:
			pr.failed++
			if o.status == http.StatusTooManyRequests {
				pr.rejected429++
			} else if o.status >= 500 {
				pr.rejected5xx++
			}
		}
	}
	srv.kill()

	// In-process replay on two copies of the data dir, batch by batch:
	// untraced, traced, then the component calls. Interleaving puts all
	// three under the same machine conditions, so the tracing overhead and
	// the layer sum compare like with like.
	var stores [2]*durable.Store
	for k, name := range []string{"replay", "replay-traced"} {
		d, err := dir(name)
		if err != nil {
			return nil, err
		}
		if stores[k], err = durable.Open(d, pi.cfg, durable.Options{Sync: true}); err != nil {
			return nil, err
		}
	}
	comp := newComponentReplay(pi.cfg, pi.seed)
	var (
		busy  [2]float64
		dirty = [2]int{pi.suffix, pi.suffix}
	)
	queryEvery := max(1, len(pi.batches)/queryProbes)
	runtime.GC()
	for i, b := range pi.batches {
		for k, st := range stores {
			t := tr
			if k == 0 {
				t = nil
			}
			t0 := time.Now()
			ckpt, err := ingestOne(t, st, id(i), b, &dirty[k], pi.snapJobs)
			busy[k] += time.Since(t0).Seconds()
			if err != nil {
				return nil, err
			}
			if ckpt && k == 1 {
				pr.checkpoints++
			}
		}
		if err := comp.batch(tr, i, id(i), b.body); err != nil {
			return nil, err
		}
		if (i+1)%queryEvery == 0 {
			for k, st := range stores {
				t := tr
				if k == 0 {
					t = nil
				}
				n, err := queryOnce(t, st.Seg())
				if err != nil {
					return nil, err
				}
				pr.reportBytes = n
			}
		}
	}
	pr.overhead = busy[1]/busy[0] - 1
	fmt.Printf("tracing overhead: traced replay %.3f s vs untraced %.3f s, interleaved (%+.1f%%)\n", busy[1], busy[0], 100*pr.overhead)
	live := stores[1].Seg()
	jobs := 0
	for _, b := range pi.batches {
		jobs += len(b.ds.Jobs)
	}
	pr.walBytesPerJob = float64(stores[1].WALBytes()) / float64(jobs)
	pr.segments = live.Segments()
	pr.seals = comp.seals
	want, liveSum := live.Len(), live.Summary()
	liveFigs, err := renderFigures(live)
	if err != nil {
		return nil, err
	}
	if comp.shadow.Summary() != liveSum {
		fmt.Println("FAIL component replay's store summary differs from IngestBatch's")
		pr.ok = false
	}
	for _, st := range stores {
		if err := st.CloseNoSnapshot(); err != nil {
			return nil, err
		}
	}

	// Recovery of what the replay left behind: its last checkpoint plus the
	// WAL written since. It must reproduce the live store's answers.
	rd := filepath.Join(e.work, "probe-replay-traced")
	for i := 0; i < 3; i++ {
		root := tr.begin("probe.open", 0)
		sp := tr.begin("durable.open", root)
		st, err := durable.Open(rd, pi.cfg, durable.Options{Sync: true})
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			figs, err := renderFigures(st.Seg())
			if err != nil {
				return nil, err
			}
			if st.Seg().Len() != want || st.Seg().Summary() != liveSum || !bytes.Equal(figs, liveFigs) {
				fmt.Printf("FAIL recovered store differs from the live one (%d vs %d jobs)\n", st.Seg().Len(), want)
				pr.ok = false
			}
		}
		if err := st.CloseNoSnapshot(); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// ingestOne commits one batch as simcloudd's ingest handler does, then
// checkpoints when the jobs since the last checkpoint reach snapJobs, as
// durable.Options.SnapshotJobs would. It reports whether it checkpointed.
func ingestOne(tr *tracer, st *durable.Store, id string, b batch, dirty *int, snapJobs int) (bool, error) {
	root := tr.begin("ingest.batch", 0)
	defer tr.end(root)
	sp := tr.begin("durable.ingest_batch", root)
	_, dup, err := st.IngestBatch(id, b.body)
	tr.end(sp)
	if err != nil || dup {
		return false, fmt.Errorf("replaying batch %s: duplicate=%v err=%v", id, dup, err)
	}
	*dirty += len(b.ds.Jobs)
	if *dirty < snapJobs {
		return false, nil
	}
	*dirty = 0
	sp = tr.begin("durable.checkpoint", root)
	defer tr.end(sp)
	return true, st.Snapshot()
}

// queryOnce answers one figure query the way /v1/figures does and returns
// the rendered size.
func queryOnce(tr *tracer, st *trace.SegStore) (int, error) {
	q := tr.begin("query", 0)
	defer tr.end(q)
	sp := tr.begin("trace.snapshot", q)
	v := st.Snapshot()
	tr.end(sp)
	sp = tr.begin("core.characterize_seg", q)
	rep := core.CharacterizeSeg(v, workers)
	tr.end(sp)
	sp = tr.begin("report.render", q)
	defer tr.end(sp)
	var buf bytes.Buffer
	err := report.RenderReport(&buf, rep)
	return buf.Len(), err
}

// componentReplay does IngestBatch's work call by call — decode, WAL
// framing, append, seal — on a shadow store that seals where the live store
// does (automatic sealing off, SealTail called at the same job counts).
type componentReplay struct {
	shadow  *trace.SegStore
	segJobs int
	tail    int // jobs in the shadow's unsealed tail
	seals   int
	chain   durable.Chain
	frame   []byte
}

// newComponentReplay starts the shadow store from the data dir's contents.
func newComponentReplay(cfg trace.SegConfig, seed []batch) *componentReplay {
	shadowCfg := cfg
	shadowCfg.SegmentJobs = -1
	c := &componentReplay{shadow: trace.NewSegStore(shadowCfg), segJobs: cfg.SegmentJobs}
	for _, b := range seed {
		appendSealed(nil, 0, c.shadow, b.ds.Jobs, c.segJobs, &c.tail)
	}
	return c
}

func (c *componentReplay) batch(tr *tracer, seq int, id string, body []byte) error {
	root := tr.begin("probe.components", 0)
	defer tr.end(root)
	sp := tr.begin("trace.read_json", root)
	ds, err := trace.ReadJSON(bytes.NewReader(body))
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("durable.wal_frame", root)
	payload := make([]byte, 0, 2+len(id)+len(body))
	payload = binary.BigEndian.AppendUint16(payload, uint16(len(id)))
	payload = append(append(payload, id...), body...)
	c.frame = durable.AppendRecord(c.frame[:0], durable.KindBatch, uint64(seq), c.chain, payload)
	c.chain = c.chain.Next(durable.KindBatch, uint64(seq), payload)
	tr.end(sp)
	c.seals += appendSealed(tr, root, c.shadow, ds.Jobs, c.segJobs, &c.tail)
	return nil
}

// appendSealed appends jobs to st in one trace.append span, sealing (in a
// child trace.seal span) each time the tail reaches segJobs, exactly where
// automatic sealing would. It returns the number of seals.
func appendSealed(tr *tracer, parent int, st *trace.SegStore, jobs []trace.JobRecord, segJobs int, tail *int) int {
	seals := 0
	sp := tr.begin("trace.append", parent)
	for len(jobs) > 0 {
		n := min(len(jobs), segJobs-*tail)
		st.AppendBatch(jobs[:n])
		*tail += n
		jobs = jobs[n:]
		if *tail == segJobs {
			s := tr.begin("trace.seal", sp)
			st.SealTail()
			tr.end(s)
			*tail = 0
			seals++
		}
	}
	tr.end(sp)
	return seals
}

// ingestLayers are the layers whose self times must add up to the
// in-process ingest time (the summed ingest.batch spans).
var ingestLayers = []string{"trace.read_json", "durable.wal_frame", "trace.append", "trace.seal", "durable.checkpoint"}

func (pr *probeResult) reconcile(lt layerTimes) (float64, bool) {
	return lt.reconcile("ingest", ingestLayers, lt.total("ingest.batch"), reconcileTol)
}

func (pr *probeResult) metrics(m map[string]metric, lt layerTimes) {
	m["simcloudd.http_overhead_ms"] = metric{1000 * (stats.Median(pr.httpAcks) - stats.Median(lt.durs["durable.ingest_batch"])), "ms"}
	m["simcloudd.rejected_429"] = metric{float64(pr.rejected429), "count"}
	m["simcloudd.rejected_5xx"] = metric{float64(pr.rejected5xx), "count"}
	m["durable.ingest_batch_ms"] = metric{lt.median("durable.ingest_batch", 1000), "ms"}
	m["durable.wal_frame_ms"] = metric{lt.median("durable.wal_frame", 1000), "ms"}
	m["durable.wal_bytes_per_job"] = metric{pr.walBytesPerJob, "B/job"}
	m["durable.checkpoint_s"] = metric{lt.median("durable.checkpoint", 1), "s"}
	m["durable.checkpoints"] = metric{float64(pr.checkpoints), "count"}
	m["durable.open_s"] = metric{lt.median("durable.open", 1), "s"}
	m["trace.read_json_ms"] = metric{lt.median("trace.read_json", 1000), "ms"}
	m["trace.append_ms"] = metric{lt.median("trace.append", 1000), "ms"}
	m["trace.seal_ms"] = metric{lt.median("trace.seal", 1000), "ms"}
	m["trace.seals"] = metric{float64(pr.seals), "count"}
	m["trace.snapshot_ms"] = metric{lt.median("trace.snapshot", 1000), "ms"}
	m["trace.segments"] = metric{float64(pr.segments), "count"}
	m["core.characterize_seg_ms"] = metric{lt.median("core.characterize_seg", 1000), "ms"}
	m["report.render_ms"] = metric{lt.median("report.render", 1000), "ms"}
	m["report.bytes"] = metric{float64(pr.reportBytes), "count"}
}
