package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one uhmd process started by the benchmark.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
}

// startServer launches uhmd on a free loopback port with the given flags.
// Its log goes to /dev/null: uhmd writes one access-log line per request,
// and the benchmark must not spend its own CPU copying them.
func startServer(bin string, flags ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	// Should the benchmark die without stopping its servers, the kernel
	// kills them.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start uhmd: %w", err)
	}
	s := &server{cmd: cmd, addr: addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (s *server) url() string { return "http://" + s.addr }

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-s.done:
			return fmt.Errorf("uhmd %s exited during start-up: %v", s.addr, s.cmd.ProcessState)
		default:
		}
		resp, err := http.Get(s.url() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("uhmd %s not healthy after %s", s.addr, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks uhmd to drain and exit, kills it if it has not within 15 s, and
// returns once the process has ended.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name in field 2 may contain spaces; fields resume after
	// its closing parenthesis, at field 3.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSSKB returns the process's peak resident set (VmHWM) in KiB.
func peakRSSKB(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// counters is a flattened /v1/stats document: every numeric leaf under its
// dotted path.  Nothing about the document's shape is assumed beyond JSON,
// so a counter a later commit deletes is simply missing — the metrics built
// on it are reported absent, never as zero.
type counters map[string]float64

// scrapeStats fetches base's /v1/stats.  A single uhmd answers
// {"workers", "stats": {...}}; a router answers {"fleet", "router",
// "backends": {addr: <single-uhmd document>}}.  Backend documents are
// summed under their single-node paths, so registry and pool counters read
// the same in both topologies.
func scrapeStats(base string) (counters, error) {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/v1/stats: HTTP %d", base, resp.StatusCode)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("GET %s/v1/stats: %w", base, err)
	}
	c := counters{}
	if backends, ok := doc["backends"].(map[string]any); ok {
		delete(doc, "backends")
		for _, b := range backends {
			c.add("", b)
		}
	}
	c.add("", doc)
	return c, nil
}

// add sums v's numeric leaves into c under prefix.
func (c counters) add(prefix string, v any) {
	switch v := v.(type) {
	case float64:
		c[prefix] += v
	case map[string]any:
		for k, sub := range v {
			if prefix != "" {
				k = prefix + "." + k
			}
			c.add(k, sub)
		}
	}
}

// delta returns after[key] − before[key], absent when either lacks it.
func delta(before, after counters, key string) (float64, bool) {
	a, ok1 := before[key]
	b, ok2 := after[key]
	return b - a, ok1 && ok2
}
