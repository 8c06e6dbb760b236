package durable

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Chaos is the failure-injection harness behind `simcloudd -chaos` and the
// package's own crash-recovery tests. A spec names a failpoint inside the
// durability layer; when execution reaches it the process dies — by default
// via os.Exit, exactly like a SIGKILL from the harness's point of view. The
// interesting property is byte precision: `wal:<n>` kills the process after
// exactly n bytes of the next WAL record have reached the file, which is how
// the chaos tests cover every torn-write shape (mid length field, mid CRC,
// mid payload) rather than only whole-record boundaries.
//
// Specs (comma-separated):
//
//	wal:<n>          die after writing n bytes of the next WAL record
//	apply:<k>        die after the k-th WAL append, before applying to the store
//	sealapply:<k>    die after logging the k-th seal, before sealing the store
//	compactapply:<k> die after logging the k-th compaction, before compacting
//	snaptmp:<k>      die after writing the k-th snapshot temp file, before rename
//	snaprename:<k>   die after renaming the k-th snapshot, before pruning
//	snapprune:<k>    die after pruning for the k-th snapshot, before dir sync
//
// Failpoints fire from more than one goroutine: the apply and wal points
// under the Store's commit mutex, the snapshot points while a checkpoint is
// written with that mutex released. The counters therefore sit behind
// Chaos's own mutex; the wal budget is only touched by WAL appends, which
// the Store serializes. The nil *Chaos is inert: every hook is nil-safe
// and production code passes nil.
type Chaos struct {
	// Exit terminates the process at a tripped failpoint. Defaults to
	// os.Exit(13); in-process tests override it with a panic to simulate
	// death without leaving the test binary.
	Exit func(point string)

	walBytes int64 // >=0: partial-write budget for the next WAL record

	mu     sync.Mutex
	counts map[string]int // guarded by mu
}

// Failpoint names accepted as `<point>:<count>` specs.
var chaosPoints = map[string]bool{
	"apply":        true,
	"sealapply":    true,
	"compactapply": true,
	"snaptmp":      true,
	"snaprename":   true,
	"snapprune":    true,
}

// ParseChaos parses a comma-separated failpoint spec. An empty spec returns
// nil — the inert chaos.
func ParseChaos(spec string) (*Chaos, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	c := &Chaos{walBytes: -1, counts: map[string]int{}}
	for _, part := range strings.Split(spec, ",") {
		name, arg, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("durable: chaos spec %q: want <point>:<count>", part)
		}
		n, err := strconv.ParseInt(arg, 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("durable: chaos spec %q: bad count", part)
		}
		switch {
		case name == "wal":
			c.walBytes = n
		case chaosPoints[name]:
			c.counts[name] = int(n)
		default:
			return nil, fmt.Errorf("durable: chaos spec %q: unknown failpoint", part)
		}
	}
	return c, nil
}

// exit fires the configured termination. Never returns.
func (c *Chaos) exit(point string) {
	if c.Exit != nil {
		c.Exit(point)
		// A test Exit hook must not return normally; panicking here would
		// hide the bug behind a confusing secondary failure message.
	}
	fmt.Fprintf(os.Stderr, "chaos: dying at failpoint %s\n", point)
	os.Exit(13)
}

// hit decrements a named failpoint counter and dies when it reaches zero.
// Nil-safe; unknown or unarmed points are free.
func (c *Chaos) hit(point string) {
	if c == nil {
		return
	}
	if c.trip(point) {
		c.exit(point)
	}
}

// trip counts one pass through point and reports whether it is the one
// that dies.
func (c *Chaos) trip(point string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.counts[point]
	if !ok {
		return false
	}
	if n > 1 {
		c.counts[point] = n - 1
		return false
	}
	delete(c.counts, point)
	return true
}

// walWrite writes one framed record to the WAL file, honoring an armed
// `wal:<n>` failpoint by writing only the first n bytes — synced so the torn
// prefix is really on disk — and dying. With no chaos armed it is a plain
// Write.
func (c *Chaos) walWrite(f *os.File, p []byte) error {
	if c == nil || c.walBytes < 0 {
		_, err := f.Write(p)
		return err
	}
	n := c.walBytes
	if n > int64(len(p)) {
		n = int64(len(p))
	}
	if _, err := f.Write(p[:n]); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	c.walBytes = -1
	c.exit(fmt.Sprintf("wal:%d", n))
	return fmt.Errorf("durable: chaos exit returned") // unreachable with a conforming Exit
}
