package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/trace"
)

// serverProc is one simcloudd subprocess on a fresh port.
type serverProc struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	ready float64
	done  chan struct{}

	mu     sync.Mutex
	stderr bytes.Buffer
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// serverArgs are the flags every server workload passes; dataDir and
// snapJobs vary per run.
func serverArgs(dataDir string, snapJobs int, seg trace.SegConfig) []string {
	return []string{
		"-addr=127.0.0.1:0",
		"-data-dir=" + dataDir,
		"-wal-sync=always",
		"-snapshot-jobs=" + strconv.Itoa(snapJobs),
		"-segment-jobs=" + strconv.Itoa(seg.SegmentJobs),
		"-max-segments=" + strconv.Itoa(seg.MaxSegments),
		"-days=" + strconv.FormatFloat(seg.DurationDays, 'g', -1, 64),
		"-workers=" + strconv.Itoa(workers),
	}
}

// startServer spawns simcloudd and waits for its first /readyz 200. ready
// is the time from spawn to that answer: recovery included.
func startServer(bin string, args []string) (*serverProc, error) {
	p := &serverProc{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	// The server must not outlive the benchmark, even if the benchmark is
	// killed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting simcloudd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			fmt.Fprintln(&p.stderr, line)
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
		p.cmd.Wait()
		close(p.done)
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
	case <-p.done:
		return nil, fmt.Errorf("simcloudd exited before listening:\n%s", p.log())
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("simcloudd never listened:\n%s", p.log())
	}
	for {
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.ready = time.Since(t0).Seconds()
				return p, nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			p.kill()
			return nil, fmt.Errorf("simcloudd never became ready:\n%s", p.log())
		}
		time.Sleep(time.Millisecond)
	}
}

func (p *serverProc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// kill SIGKILLs the server and waits until it has exited.
func (p *serverProc) kill() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Kill()
	<-p.done
}

// peakRSSMB reads the server's peak resident set (VmHWM) while it runs.
func (p *serverProc) peakRSSMB() float64 {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
}

func selfPeakRSSMB() float64 { return peakRSSMB("/proc/self/status") }

func peakRSSMB(statusFile string) float64 {
	raw, err := os.ReadFile(statusFile)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// ack is simcloudd's ingest response.
type ack struct {
	Seq       uint64 `json:"seq"`
	Jobs      int    `json:"jobs"`
	TotalJobs int    `json:"total_jobs"`
	Segments  int    `json:"segments"`
	Duplicate bool   `json:"duplicate"`
}

// outcome is one request's result as the client saw it.
type outcome struct {
	status int // 0 = transport error
	lat    float64
	ack    ack
}

func (o outcome) ok() bool { return o.status == http.StatusOK }

// newClient returns an HTTP client holding at most `conns` connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   2 * time.Minute,
	}
}

// post sends one ingest batch with an explicit batch ID; lat is measured
// from `from`.
func post(c *http.Client, base, id string, body []byte, from time.Time) outcome {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/ingest", bytes.NewReader(body))
	if err != nil {
		return outcome{}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Batch-ID", id)
	resp, err := c.Do(req)
	if err != nil {
		return outcome{lat: time.Since(from).Seconds()}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	o := outcome{status: resp.StatusCode, lat: time.Since(from).Seconds()}
	if err != nil {
		o.status = 0
		return o
	}
	if o.ok() && json.Unmarshal(raw, &o.ack) != nil {
		o.status = 0
	}
	return o
}

// get fetches a path and returns the body; a non-200 answer is an error.
func get(c *http.Client, url string) ([]byte, int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return b, resp.StatusCode, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, resp.StatusCode, nil
}

// copyDir copies a flat data directory (WAL files and snapshots).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
