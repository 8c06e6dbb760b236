// Package client is the ingest side of the durability contract: a retrying
// HTTP client for simcloudd whose every request is safe to repeat. Batches
// carry content-derived IDs (SHA-256 of the body), so a retry after an
// ambiguous failure — connection dropped mid-response, server killed after
// commit — lands on the server's idempotency ledger and is applied exactly
// once. Backoff is full-jitter exponential with two independent brakes: an
// attempt cap and a cumulative sleep budget. 429 responses carrying
// Retry-After (the server's backpressure signal) are obeyed.
package client

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/dist"
)

// Result is the server's ingest acknowledgment.
type Result struct {
	Seq       uint64 `json:"seq"`        // WAL sequence that committed the batch
	Jobs      int    `json:"jobs"`       // jobs the batch added
	TotalJobs int    `json:"total_jobs"` // store size after the batch
	Duplicate bool   `json:"duplicate"`  // batch ID was already applied
}

// StatusError is a non-2xx server response. Temporary reports whether a
// retry could help: overload (429) and server-side trouble (5xx, including
// a draining server's 503) are temporary; client mistakes (400, 405, 413)
// and a full store (507) are not.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Msg)
}

func (e *StatusError) Temporary() bool {
	if e.Status == http.StatusInsufficientStorage {
		return false // the store is full by policy; retrying cannot help
	}
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// Options configures a Client. The zero value of every field has a usable
// default.
type Options struct {
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxAttempts caps tries per request (first attempt included).
	// Default 8.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 50ms); MaxDelay
	// caps a single sleep (default 5s).
	BaseDelay, MaxDelay time.Duration
	// SleepBudget caps cumulative backoff sleep per request (default 2m):
	// a request that cannot get through inside it fails even with
	// attempts to spare.
	SleepBudget time.Duration
	// Seed feeds the jitter RNG; requests are deterministic given a seed
	// and a server behavior sequence.
	Seed uint64
	// Sleep is the backoff clock, injectable for tests. Default
	// time.Sleep.
	Sleep func(time.Duration)
}

// Client is a retrying simcloudd client. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	opts Options

	mu  sync.Mutex
	rng *dist.RNG
}

// New returns a client for the server at baseURL (e.g. "http://host:8080").
func New(baseURL string, opts Options) *Client {
	if opts.HTTPClient == nil {
		opts.HTTPClient = http.DefaultClient
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 8
	}
	if opts.BaseDelay <= 0 {
		opts.BaseDelay = 50 * time.Millisecond
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 5 * time.Second
	}
	if opts.SleepBudget <= 0 {
		opts.SleepBudget = 2 * time.Minute
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	return &Client{base: baseURL, hc: opts.HTTPClient, opts: opts, rng: dist.New(opts.Seed)}
}

// BatchID derives the canonical content-hash batch ID for a body. Two
// submissions of byte-identical bodies share an ID — which is exactly the
// dedup a blind retry needs.
func BatchID(body []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(body))
}

// IngestBody ingests a pre-encoded dataset body under its content-hash ID.
func (c *Client) IngestBody(body []byte) (Result, error) {
	return c.IngestBodyID(BatchID(body), body)
}

// IngestBodyID ingests body under an explicit batch ID.
func (c *Client) IngestBodyID(id string, body []byte) (Result, error) {
	var res Result
	err := c.do("/v1/ingest", map[string]string{"X-Batch-ID": id}, body, &res)
	return res, err
}

// do POSTs body to path with retries. A nil out skips response decoding.
func (c *Client) do(path string, headers map[string]string, body []byte, out any) error {
	var slept time.Duration
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			d := c.backoff(attempt, lastErr)
			if slept+d > c.opts.SleepBudget {
				return fmt.Errorf("client: retry budget %v exhausted after %d attempts: %w",
					c.opts.SleepBudget, attempt, lastErr)
			}
			c.opts.Sleep(d)
			slept += d
		}
		err := c.post(path, headers, body, out)
		if err == nil {
			return nil
		}
		var se *StatusError
		if errors.As(err, &se) && !se.Temporary() {
			return err // the request is at fault; repeating it cannot help
		}
		lastErr = err
	}
	return fmt.Errorf("client: giving up after %d attempts: %w", c.opts.MaxAttempts, lastErr)
}

// post performs one attempt.
func (c *Client) post(path string, headers map[string]string, body []byte, out any) error {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err // transport errors are always retryable
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{Status: resp.StatusCode, Msg: string(bytes.TrimSpace(data))}
		if ra := retryAfterSeconds(resp); ra > 0 && se.Temporary() {
			return &retryAfterError{StatusError: se, after: ra}
		}
		return se
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// retryAfterError carries the server's requested delay alongside the status.
type retryAfterError struct {
	*StatusError
	after time.Duration
}

func (e *retryAfterError) Unwrap() error { return e.StatusError }

func retryAfterSeconds(resp *http.Response) time.Duration {
	sec, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || sec <= 0 {
		return 0
	}
	return time.Duration(sec) * time.Second
}

// backoff returns the sleep before the attempt-th retry: full jitter over
// an exponentially growing cap, floored by any server-requested Retry-After
// (which knows the backlog better than our exponent does).
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	ceil := c.opts.BaseDelay << (attempt - 1)
	if ceil > c.opts.MaxDelay || ceil <= 0 {
		ceil = c.opts.MaxDelay
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Float64() * float64(ceil))
	c.mu.Unlock()
	if d < time.Millisecond {
		d = time.Millisecond
	}
	var rae *retryAfterError
	if e, ok := lastErr.(*retryAfterError); ok {
		rae = e
	}
	if rae != nil && rae.after > d {
		d = rae.after
	}
	if d > c.opts.MaxDelay {
		d = c.opts.MaxDelay
	}
	return d
}
