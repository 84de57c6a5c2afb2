package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// A spec is one workload: a traffic mix against one server topology.  Why each exists
// and what it isolates is recorded in BENCHMARK.json and README.md.
type spec struct {
	name string
	// programs is the size of the cyclic request sequence.
	programs int
	// conns is the number of closed-loop connections.
	conns int
	// cacheBytes is the artifact-registry budget given to every backend.
	cacheBytes int64
	// store serves the backend from a persisted artifact store, warm
	// started in full before it answers.
	store bool
	// fleet puts a router in front of two backends.
	fleet bool
}

// defaultCacheBytes is uhmd's own -cache-bytes default.
const defaultCacheBytes = 256 << 20

var workloads = []spec{
	// The working set fits the registry and the replayer pool.
	{name: "hot", programs: 24, conns: 2, cacheBytes: defaultCacheBytes},
	// 512 keys cycled against a pool that keeps at most 16 × GOMAXPROCS
	// idle replayers: every request hits the registry and misses the pool.
	{name: "wide", programs: 512, conns: 2, cacheBytes: defaultCacheBytes, store: true},
	// A 32 MiB registry holds about 310 artifacts; 1024 keys cycled
	// through it mean every request builds.
	{name: "cold", programs: 1024, conns: 2, cacheBytes: 32 << 20},
	// One connection keeps at most one process on the request path.
	{name: "fleet", programs: 24, conns: 1, cacheBytes: defaultCacheBytes, fleet: true},
}

func workloadByName(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// topology is one started set of servers.
type topology struct {
	// front is the base URL clients send to.
	front string
	// backends simulate; router, when set, only places requests.
	backends []*server
	router   *server
}

func (t *topology) servers() []*server {
	if t.router == nil {
		return t.backends
	}
	return append([]*server{t.router}, t.backends...)
}

func (t *topology) stop() {
	for _, s := range t.servers() {
		s.stop()
	}
}

// env is what every run shares: the binary under test and a scratch
// directory the run owns.
type env struct {
	uhmd string
	work string
	// storeTemplate is the wide workload's persisted store, built once per
	// run and copied afresh for every server that warm starts from it.
	storeTemplate string
	copies        int
}

// start launches the workload's servers and makes its working set resident:
// health, warm start, and one untimed pass over every program.  The pass
// counts towards the run's attempted and failed operations.  setup is the
// time from launching the first server to the end of the pass.
func (e *env) start(w spec, progs []*program, pass *loadStats) (t *topology, setup time.Duration, err error) {
	flags := []string{"-cache-bytes", strconv.FormatInt(w.cacheBytes, 10)}
	if w.store {
		dir, err := e.storeCopy(progs, pass)
		if err != nil {
			return nil, 0, err
		}
		flags = append(flags, "-store-dir", dir, "-warm-start", "-1")
	}
	t0 := time.Now()
	t = &topology{}
	nb := 1
	if w.fleet {
		nb = 2
	}
	for range nb {
		s, err := startServer(e.uhmd, flags...)
		if err != nil {
			t.stop()
			return nil, 0, err
		}
		t.backends = append(t.backends, s)
	}
	for _, s := range t.backends {
		if err := s.waitHealthy(60 * time.Second); err != nil {
			t.stop()
			return nil, 0, err
		}
	}
	t.front = t.backends[0].url()
	if w.fleet {
		r, err := startServer(e.uhmd, "-router", "-backends", t.backends[0].addr+","+t.backends[1].addr)
		if err != nil {
			t.stop()
			return nil, 0, err
		}
		t.router = r
		if err := r.waitHealthy(60 * time.Second); err != nil {
			t.stop()
			return nil, 0, err
		}
		t.front = r.url()
	}
	pass.merge(drive(t.front, progs, w.conns, 0))
	return t, time.Since(t0), nil
}

// storeCopy returns a fresh copy of the wide workload's store, building the
// template on first use: one uhmd with -store-dir serves every program once
// (write-through persists each artifact with its trace) and is stopped.
func (e *env) storeCopy(progs []*program, pass *loadStats) (string, error) {
	if e.storeTemplate == "" {
		dir := filepath.Join(e.work, "store-template")
		s, err := startServer(e.uhmd, "-store-dir", dir)
		if err != nil {
			return "", err
		}
		err = s.waitHealthy(60 * time.Second)
		if err == nil {
			pass.merge(drive(s.url(), progs, 2, 0))
		}
		s.stop()
		if err != nil {
			return "", err
		}
		e.storeTemplate = dir
	}
	e.copies++
	dst := filepath.Join(e.work, fmt.Sprintf("store-%d", e.copies))
	return dst, copyDir(e.storeTemplate, dst)
}

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
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirUsage returns the number of regular files in dir and their total size.
func dirUsage(dir string) (files int, bytes int64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			return 0, 0, err
		}
		if info.Mode().IsRegular() {
			files++
			bytes += info.Size()
		}
	}
	return files, bytes, nil
}
