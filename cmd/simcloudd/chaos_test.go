package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/durable/client"
	"repro/internal/trace"
)

// TestMain doubles as the chaos harness's server entry point: when
// SIMCLOUDD_RUN_SERVER is set, the test binary re-execs into run() — a real
// simcloudd process with real flags, a real listener, and real os.Exit
// crash semantics — instead of running tests.
func TestMain(m *testing.M) {
	if os.Getenv("SIMCLOUDD_RUN_SERVER") == "1" {
		log.SetFlags(0)
		log.SetPrefix("simcloudd: ")
		if err := run(strings.Split(os.Getenv("SIMCLOUDD_ARGS"), "\x1f")); err != nil {
			log.Fatal(err)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// chaosProc is one live simcloudd subprocess.
type chaosProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *bytes.Buffer
	mu     sync.Mutex
	done   chan struct{}
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startProc launches the test binary as a simcloudd server on a random port
// and waits for its listen line.
func startProc(t *testing.T, args []string, chaosSpec string) *chaosProc {
	t.Helper()
	if chaosSpec != "" {
		args = append(append([]string(nil), args...), "-chaos="+chaosSpec)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"SIMCLOUDD_RUN_SERVER=1",
		"SIMCLOUDD_ARGS="+strings.Join(args, "\x1f"),
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &chaosProc{cmd: cmd, stderr: &bytes.Buffer{}, done: make(chan struct{})}

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			fmt.Fprintln(p.stderr, line)
			p.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	go func() {
		cmd.Wait()
		close(p.done)
	}()

	select {
	case a := <-addr:
		p.base = "http://" + a
	case <-p.done:
		t.Fatalf("server died before listening:\n%s", p.dump())
	case <-time.After(listenBudget()):
		cmd.Process.Kill()
		t.Fatalf("server never announced a listener:\n%s", p.dump())
	}
	return p
}

// listenBudget bounds a server's start, which includes recovering its data
// dir. Recovery re-decodes the WAL suffix, and under the race detector that
// took up to 17 s on a 2-core host (against about 1 s without it), so race
// builds get 120 s instead of 15 s.
func listenBudget() time.Duration {
	if raceEnabled {
		return 120 * time.Second
	}
	return 15 * time.Second
}

func (p *chaosProc) dump() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// kill SIGKILLs the process (if still alive) and waits for it to reap.
func (p *chaosProc) kill(t *testing.T) {
	t.Helper()
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Kill()
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("server ignored SIGKILL:\n%s", p.dump())
	}
}

// awaitDeath waits for a chaos failpoint to take the process down.
func (p *chaosProc) awaitDeath(timeout time.Duration) bool {
	select {
	case <-p.done:
		return true
	case <-time.After(timeout):
		return false
	}
}

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// randKillSpec draws one failure-injection spec. WAL tears dominate (they
// exercise every byte offset of the commit path); the rest split between
// death-after-commit and the three snapshot failpoints.
func randKillSpec(rng *rand.Rand) string {
	switch r := rng.Intn(10); {
	case r < 6:
		return fmt.Sprintf("wal:%d", rng.Intn(2000))
	case r < 8:
		return "apply:1"
	case r == 8:
		return []string{"snaptmp:1", "snaprename:1"}[rng.Intn(2)]
	default:
		return "snapprune:1"
	}
}

// TestChaosKillRecovery is the acceptance harness: a real simcloudd
// subprocess is crashed with randomized failure injection — torn WAL writes
// at arbitrary byte offsets, deaths between commit and apply, deaths inside
// snapshot writing — plus raw SIGKILLs, while a retrying idempotent client
// feeds it batches. After every crash the server restarts from the same
// -data-dir and ingestion resumes with blind retries. At the end, one more
// hard kill and a clean restart must yield /v1/summary and /v1/figures
// byte-identical to an uninterrupted in-process server fed the same batches
// in the same order, with every batch applied exactly once.
//
// SIMCLOUDD_CHAOS_KILLS sets the kill count (default 8 keeps `go test`
// quick; `make chaos` runs 50+). SIMCLOUDD_CHAOS_SEED varies the kill
// schedule.
func TestChaosKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness is not -short")
	}
	kills := envInt("SIMCLOUDD_CHAOS_KILLS", 8)
	seed := envInt("SIMCLOUDD_CHAOS_SEED", 20260808)
	rng := rand.New(rand.NewSource(int64(seed)))

	ds := testDataset(t, 0.02, 23)
	numBatches := kills + 5
	if numBatches > len(ds.Jobs) {
		t.Fatalf("dataset too small: %d jobs for %d batches", len(ds.Jobs), numBatches)
	}
	bodies := make([][]byte, 0, numBatches)
	step := (len(ds.Jobs) + numBatches - 1) / numBatches
	for lo := 0; lo < len(ds.Jobs); lo += step {
		hi := lo + step
		if hi > len(ds.Jobs) {
			hi = len(ds.Jobs)
		}
		bodies = append(bodies, encodeBatch(t, ds, lo, hi).Bytes())
	}

	seg := trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 48, MaxSegments: 6}
	dir := t.TempDir()
	args := []string{
		"-addr=127.0.0.1:0",
		"-data-dir=" + dir,
		"-wal-sync=always",
		"-segment-jobs=" + strconv.Itoa(seg.SegmentJobs),
		"-max-segments=" + strconv.Itoa(seg.MaxSegments),
		"-days=" + strconv.FormatFloat(seg.DurationDays, 'g', -1, 64),
		"-snapshot-jobs=100",
		"-wal-rotate-bytes=65536",
	}

	newClient := func(base string) *client.Client {
		return client.New(base, client.Options{
			MaxAttempts: 4,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    20 * time.Millisecond,
			SleepBudget: 2 * time.Second,
			Seed:        uint64(seed),
		})
	}

	killsUsed, crashes := 0, 0
	srv := startProc(t, args, "")
	for i, body := range bodies {
		// While the kill budget lasts, every batch lands on a freshly
		// crashed-and-rearmed server: SIGKILL whatever is running (a crash
		// at an arbitrary idle point), restart with a random failpoint.
		if killsUsed < kills {
			srv.kill(t)
			spec := randKillSpec(rng)
			killsUsed++
			srv = startProc(t, args, spec)
		}
		for attempt := 0; ; attempt++ {
			if attempt > 6 {
				t.Fatalf("batch %d not acked after %d server generations:\n%s", i, attempt, srv.dump())
			}
			_, err := newClient(srv.base).IngestBody(body)
			if err == nil {
				break
			}
			// The server died (failpoint or mid-request kill). Make sure
			// it is fully gone, then restart clean and blind-retry the
			// same body — the idempotency ledger guarantees exactly-once.
			crashes++
			if !srv.awaitDeath(5 * time.Second) {
				srv.kill(t)
			}
			srv = startProc(t, args, "")
		}
	}

	// Final hard kill: the state we verify is recovered state, not the
	// survivor's in-memory state.
	srv.kill(t)
	crashes++
	srv = startProc(t, args, "")
	defer srv.kill(t)
	t.Logf("%d kill specs armed, %d observed crash recoveries, %d batches", killsUsed, crashes, len(bodies))

	// Uninterrupted reference: an in-process server over a fresh store, fed
	// the same bodies in the same order.
	refStore, err := durable.Open(t.TempDir(), seg, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer refStore.Close()
	ref := httptest.NewServer(newServer(refStore, serverConfig{workers: 1}).mux())
	defer ref.Close()
	rc := newClient(ref.URL)
	for i, body := range bodies {
		if _, err := rc.IngestBody(body); err != nil {
			t.Fatalf("reference ingest %d: %v", i, err)
		}
	}

	wantSum, gotSum := getRaw(t, ref.URL+"/v1/summary"), getRaw(t, srv.base+"/v1/summary")
	if gotSum != wantSum {
		t.Errorf("summary diverged after %d crashes:\n got %s\nwant %s", crashes, gotSum, wantSum)
	}
	wantFigs, gotFigs := stripFiguresHeader(getRaw(t, ref.URL+"/v1/figures")), stripFiguresHeader(getRaw(t, srv.base+"/v1/figures"))
	if gotFigs != wantFigs {
		t.Errorf("figures diverged after %d crashes (%d vs %d bytes)", crashes, len(gotFigs), len(wantFigs))
	}

	// Exactly-once: every body re-sent to the recovered server is a
	// duplicate; the store does not grow.
	var before statsResponse
	getJSON(t, srv.base+"/v1/stats", &before)
	if before.Jobs != len(ds.Jobs) {
		t.Errorf("recovered store has %d jobs, want %d", before.Jobs, len(ds.Jobs))
	}
	for i, body := range bodies {
		res, err := newClient(srv.base).IngestBody(body)
		if err != nil {
			t.Fatalf("duplicate probe %d: %v", i, err)
		}
		if !res.Duplicate {
			t.Errorf("batch %d replay not recognized as duplicate", i)
		}
	}
	var after statsResponse
	getJSON(t, srv.base+"/v1/stats", &after)
	if after.Jobs != before.Jobs {
		t.Errorf("duplicate replay grew the store: %d -> %d jobs", before.Jobs, after.Jobs)
	}
}

func getRaw(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s: %s", url, resp.Status, b)
	}
	return string(b)
}

// stripFiguresHeader drops the snapshot/timing header block (everything
// through the first blank line); the timing line legitimately differs
// between servers.
func stripFiguresHeader(s string) string {
	if i := strings.Index(s, "\n\n"); i >= 0 {
		return s[i+2:]
	}
	return s
}
