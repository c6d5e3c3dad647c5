package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running cmd/server process on a loopback port, serving
// a durable store in dir with default flags.
type server struct {
	bin, dir, base string
	cmd            *exec.Cmd
	logf           *os.File
	client         *http.Client
	exited         chan struct{}
	closeLog       sync.Once
}

// startServer launches the server on a free loopback port and waits
// until /healthz answers, which happens only once the store has been
// opened (recovered) — so the wait is also the recovery time.
func startServer(bin, dir string, client *http.Client) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.OpenFile(filepath.Join(filepath.Dir(dir), filepath.Base(dir)+".log"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s := &server{bin: bin, dir: dir, base: "http://" + addr, logf: logf, client: client,
		exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr, "-data-dir", dir)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	go func() { _ = s.cmd.Wait(); close(s.exited) }()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			s.reaped()
			return nil, fmt.Errorf("server exited during start-up (see %s)", logf.Name())
		case <-time.After(500 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, errors.New("server did not become healthy within 120s")
		}
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// kill SIGKILLs the server (a crash: nothing is flushed) and waits for
// it. Killing or stopping an exited server is a no-op.
func (s *server) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
	s.reaped()
}

// stop asks for a graceful shutdown, escalating to SIGKILL after 20s.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		s.reaped()
	case <-time.After(20 * time.Second):
		s.kill()
	}
}

// reaped releases what a server held once its process has exited.
func (s *server) reaped() {
	s.closeLog.Do(func() {
		s.client.CloseIdleConnections()
		s.logf.Close()
		untrack(s)
	})
}

// do sends one request and returns status and body.
func (s *server) do(ctx context.Context, method, path string, body []byte, hdr map[string]string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches path and decodes the JSON body into v.
func (s *server) getJSON(path string, v any) error {
	code, b, err := s.do(context.Background(), http.MethodGet, path, nil, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, b)
	}
	return json.Unmarshal(b, v)
}

// health is the subset of /healthz the benchmark reads.
type health struct {
	Images int `json:"images"`
	WAL    struct {
		Bytes int64 `json:"bytes"` // on disk, across segments
	} `json:"wal"`
}

func (s *server) health() (health, error) {
	var h health
	err := s.getJSON("/healthz", &h)
	return h, err
}

// metrics scrapes and parses GET /metrics.
func (s *server) metrics() (scrape, error) {
	code, b, err := s.do(context.Background(), http.MethodGet, "/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	return parseProm(bytes.NewReader(b))
}

// cpuSeconds reads the server's user+system CPU time from /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after the last
	// ')' start at field 3 (state).
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// peakRSSMB reads VmHWM (peak resident set size) from /proc/<pid>/status.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostCPU reads the machine-wide CPU time counters of /proc/stat in
// clock ticks: all time, and steal (time the vCPUs were ready to run
// but the hypervisor ran another guest).
func hostCPU() (total, steal float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
	}
	steal, err = strconv.ParseFloat(f[8], 64)
	return total, steal, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
