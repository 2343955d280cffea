package main

// The pebbled process: start, readiness, counter scrapes, stop.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os/exec"
	"regexp"
	"sync"
	"syscall"
	"time"
)

// pebbledFlags are the flags the benchmark starts pebbled with: the
// defaults, except an ephemeral loopback port and a request timeout long
// enough that no request of any workload degrades.
var pebbledFlags = []string{"-addr", "127.0.0.1:0", "-request-timeout", "120s"}

// pebbled is one running pebbled process.
type pebbled struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *addrWatcher
	http   *http.Client
}

// addrWatcher collects pebbled's standard error and picks the bound
// address out of its "serving on" line.
type addrWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

var servingRe = regexp.MustCompile(`serving on (http://\S+)`)

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if m := servingRe.FindSubmatch(w.buf.Bytes()); m != nil {
			w.sent = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *addrWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startPebbled starts the binary and returns once /readyz answers 200.
func startPebbled(ctx context.Context, bin string) (*pebbled, error) {
	w := &addrWatcher{addr: make(chan string, 1)}
	cmd := exec.CommandContext(ctx, bin, pebbledFlags...)
	cmd.Stderr = w
	// Take pebbled down with the benchmark if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pebbled: %w", err)
	}
	p := &pebbled{cmd: cmd, stderr: w, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}}
	select {
	case p.base = <-w.addr:
	case <-time.After(10 * time.Second):
		p.kill()
		return nil, fmt.Errorf("pebbled did not report its address within 10s; stderr:\n%s", w)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := p.http.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("pebbled not ready within 10s (last error %v); stderr:\n%s", err, w)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill ends the process without a drain and waits for it.
func (p *pebbled) kill() {
	p.http.CloseIdleConnections()
	p.cmd.Process.Kill() //nolint:errcheck // the process may already be gone; Wait reports how it ended
	p.cmd.Wait()         //nolint:errcheck // killed on an error path; its exit status is moot
}

// stop drains pebbled with SIGTERM, waits for it to exit, and returns
// its peak resident set size in MiB.
func (p *pebbled) stop() (float64, error) {
	p.http.CloseIdleConnections()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return 0, fmt.Errorf("signal pebbled: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return 0, fmt.Errorf("pebbled exit: %w; stderr:\n%s", err, p.stderr)
		}
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck // best effort; Wait below reaps it
		<-done
		return 0, errors.New("pebbled did not drain within 30s")
	}
	ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no resource usage for pebbled")
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

// counters scrapes pebbled's /debug/vars and returns its joinpebble
// counters.
func (p *pebbled) counters(ctx context.Context) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/debug/vars", nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /debug/vars: %w", err)
	}
	defer resp.Body.Close()
	var vars struct {
		Joinpebble struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"joinpebble"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return vars.Joinpebble.Counters, nil
}

// settledCounters scrapes until engine/runs reaches runs. A request's
// counters reach the process registry when its scope closes, which
// happens just after the response is written, so a scrape taken right
// after the last response may miss that request.
func (p *pebbled) settledCounters(ctx context.Context, runs int64) (map[string]int64, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := p.counters(ctx)
		if err != nil {
			return nil, err
		}
		if c["engine/runs"] >= runs {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("engine/runs stuck at %d, want %d", c["engine/runs"], runs)
		}
		time.Sleep(time.Millisecond)
	}
}
