package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// readyPrefix is the line the daemon writes to stderr once it listens.
const readyPrefix = "hdmm: serving HTTP on "

// daemon is one `hdmm serve -http` process with its own strategy cache and
// snapshot directory.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	client  *http.Client
	kernels string // kernel backend reported on /healthz

	mu      sync.Mutex
	tail    []string      // last stderr lines, for diagnostics
	drained chan struct{} // closed once stderr reaches EOF
}

// daemonEnv is the benchmark's environment minus HDMM_KERNELS, so an
// ambient setting cannot change the arithmetic being measured.
func daemonEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "HDMM_KERNELS=") {
			env = append(env, kv)
		}
	}
	return env
}

// startDaemon launches the daemon on a loopback port with fresh -cache and
// -snapshot-dir directories under dir, and returns once /healthz answers.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, error) {
	cmd := exec.Command(bin, "serve", "-http", "127.0.0.1:0",
		"-cache", filepath.Join(dir, "cache"), "-snapshot-dir", filepath.Join(dir, "snapshots"))
	cmd.Env = daemonEnv()
	// The daemon must not outlive the benchmark, even one killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	d := &daemon{
		cmd:     cmd,
		client:  &http.Client{Transport: &http.Transport{DisableCompression: true, MaxIdleConnsPerHost: 1}},
		drained: make(chan struct{}),
	}
	addr := make(chan string, 1)
	go d.drain(stderr, addr)
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("daemon exited before listening: %s", d.logTail())
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	var health struct {
		Status  string `json:"status"`
		Kernels string `json:"kernels"`
	}
	if err := d.getJSON(ctx, "/healthz", &health); err != nil {
		d.stop()
		return nil, err
	}
	if health.Status != "ok" || health.Kernels == "" {
		d.stop()
		return nil, fmt.Errorf("daemon unhealthy: %+v", health)
	}
	d.kernels = health.Kernels
	return d, nil
}

// drain reads the daemon's stderr to EOF, sending the listen address once
// and keeping the last lines for error messages.
func (d *daemon) drain(r io.Reader, addr chan<- string) {
	defer close(d.drained)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if !sent && strings.HasPrefix(line, readyPrefix) {
			addr <- strings.TrimSpace(strings.TrimPrefix(line, readyPrefix))
			sent = true
		}
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 20 {
			d.tail = d.tail[len(d.tail)-20:]
		}
		d.mu.Unlock()
	}
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// stop sends SIGTERM, escalates to SIGKILL after a grace period, and
// returns once the process has exited and its stderr is drained.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait() // the exit status of a stopped daemon carries no information
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// post sends one JSON body and reads the whole response. The latency runs
// from just before the request is written to the last body byte read.
func (d *daemon) post(ctx context.Context, path string, body []byte) (status int, resp []byte, latency time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	r, err := d.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err = io.ReadAll(r.Body)
	latency = time.Since(start)
	r.Body.Close()
	return r.StatusCode, resp, latency, err
}

func (d *daemon) getJSON(ctx context.Context, path string, dst any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "application/json")
	r, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	b, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, r.StatusCode, b)
	}
	return json.Unmarshal(b, dst)
}

func (d *daemon) metrics(ctx context.Context) (*server.MetricsResponse, error) {
	var m server.MetricsResponse
	if err := d.getJSON(ctx, "/metrics", &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// cpuSeconds is the process's user+system CPU time from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line, counted in USER_HZ (100/s on
	// Linux).
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return (ut + st) / 100, nil
}

// peakRSSMB is the process's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
