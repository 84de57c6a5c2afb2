package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"uhm/internal/core"
	"uhm/internal/service"
	"uhm/internal/sim"
	"uhm/internal/store"
)

// The traced run.  It measures each layer from outside, in three parts:
//
//  1. An HTTP window against the real servers, with /v1/stats scraped and
//     every process's CPU read from /proc at the window's edges.
//  2. The same request sequence replayed in-process through
//     service.Service.RunSource, once untraced and once with a span around
//     every call; the difference in throughput is the tracing overhead.
//  3. Each lower layer's public function timed in isolation on the same
//     programs, each call a span under one root per program.
//
// The service's own counters give how often each layer runs per request;
// those counts times the isolated costs are the attributed part of
// service.run_us, and the rest is service.unattributed_us.  Nothing private
// is mirrored, so a later commit that restructures the service changes the
// counts, not what the benchmark times.

// span is one timed call.  Spans of one request or one isolated pipeline
// share req; parent is the index+1 of the enclosing span, 0 for a root.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.  It is used from one
// goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

func (t *tracer) end(h int) time.Duration {
	s := &t.spans[h-1]
	s.End = int64(time.Since(t.epoch))
	return time.Duration(s.End - s.Start)
}

// selfTimes returns each span name's mean self time in µs: its duration
// less the time its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent-1] += s.End - s.Start
		}
	}
	sum, n := map[string]int64{}, map[string]int{}
	for i, s := range t.spans {
		sum[s.Name] += s.End - s.Start - child[i]
		n[s.Name]++
	}
	out := make(map[string]float64, len(sum))
	for k, v := range sum {
		out[k] = float64(v) / float64(n[k]) / 1e3
	}
	return out
}

// traced measures the workload's per-layer metrics.
func traced(e *env, w spec, progs []*program, window time.Duration, o *outcome, spansPath string) error {
	if err := httpLayers(e, w, progs, window/2, o); err != nil {
		return err
	}
	tr := &tracer{epoch: time.Now()}
	svc, err := storeLayers(e, w, progs, o, tr)
	if err != nil {
		return err
	}
	if svc == nil {
		svc = service.New(service.Options{CapacityBytes: w.cacheBytes})
	}
	counts := serviceLayers(svc, progs, window/2, o, tr)
	isolatedLayers(progs, window/4, o, tr)
	attribute(o, counts)

	self := tr.selfTimes()
	o.report["self_us_mean"] = self
	data, err := json.Marshal(map[string]any{"spans": tr.spans, "self_us_mean": self})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return err
	}
	o.report["spans_file"] = spansPath
	return os.WriteFile(spansPath, data, 0o644)
}

// processCPU returns the benchmark process's own CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// httpLayers runs one HTTP window and derives the counter- and CPU-based
// per-layer metrics from its edges.
func httpLayers(e *env, w spec, progs []*program, window time.Duration, o *outcome) error {
	pass := &loadStats{}
	topo, _, err := e.start(w, progs, pass)
	if err != nil {
		return err
	}
	defer topo.stop()
	o.count(pass)

	before, err := scrapeStats(topo.front)
	if err != nil {
		return err
	}
	cpu0, err := serverCPU(topo)
	if err != nil {
		return err
	}
	self0 := processCPU()
	timed := drive(topo.front, progs, w.conns, window)
	self1 := processCPU()
	cpu1, err := serverCPU(topo)
	if err != nil {
		return err
	}
	after, err := scrapeStats(topo.front)
	if err != nil {
		return err
	}
	o.count(timed)
	if w.fleet {
		checkSingleBuild(topo, progs, o)
	}
	n := float64(timed.attempted)
	if n == 0 {
		return fmt.Errorf("no request completed in the traced window")
	}
	perReq := func(d time.Duration) float64 { return float64(d) / 1e3 / n }

	var backendCPU time.Duration
	for i := range topo.backends {
		backendCPU += cpu1[i] - cpu0[i]
	}
	o.set("uhmd.cpu_us_per_req", "us", perReq(backendCPU))
	o.set("client.cpu_us_per_req", "us", perReq(self1-self0))
	o.set("client.p99_ms", "ms", ms(timed.quantile(0.99)))
	o.set("client.samples", "count", float64(len(timed.lat)))

	d := func(key string) (float64, bool) { return delta(before, after, key) }
	ratio := func(num, den string) (float64, bool) {
		a, ok1 := d(num)
		b, ok2 := d(den)
		return a / (a + b), ok1 && ok2 && a+b > 0
	}
	o.setIf("registry.hit_ratio", "ratio")(ratio("stats.Registry.Hits", "stats.Registry.Misses"))
	o.setIf("pool.hit_ratio", "ratio")(ratio("stats.Pool.Hits", "stats.Pool.Misses"))
	builds, ok := d("stats.Registry.Builds")
	o.setIf("registry.builds_per_req", "count")(builds/n, ok)
	ev, ok := d("stats.Registry.Evictions")
	o.setIf("registry.evictions_per_req", "count")(ev/n, ok)
	// Shed requests skip the derive attempt; a service without the
	// degradation ladder has no Shed counter and sheds nothing.
	fb, ok := d("stats.Requests.DeriveFallbacks")
	shed, _ := d("stats.Requests.Shed")
	o.setIf("service.derive_fallback_ratio", "ratio")((fb+shed)/n, ok)
	bytes, ok1 := after["stats.Registry.Bytes"]
	entries, ok2 := after["stats.Registry.Entries"]
	o.setIf("registry.kb_per_artifact", "KB")(bytes/1024/entries, ok1 && ok2 && entries > 0)

	if topo.router == nil {
		// No router on the path: it spends nothing and retries nothing.
		o.set("router.cpu_us_per_req", "us", 0)
		o.set("router.retry_ratio", "ratio", 0)
		o.set("router.fallbacks", "count", 0)
		o.set("router.ejections", "count", 0)
		o.report["router"] = "none on the path"
		return nil
	}
	o.set("router.cpu_us_per_req", "us", perReq(cpu1[len(cpu1)-1]-cpu0[len(cpu0)-1]))
	retries, ok1 := d("router.retries")
	proxied, ok2 := d("router.proxied")
	o.setIf("router.retry_ratio", "ratio")(retries/proxied, ok1 && ok2 && proxied > 0)
	o.setIf("router.fallbacks", "count")(d("router.fallbacks"))
	o.setIf("router.ejections", "count")(d("router.ejections"))
	return nil
}

// serverCPU reads every backend's CPU time, then the router's if any.
func serverCPU(t *topology) ([]time.Duration, error) {
	var out []time.Duration
	for _, s := range append(t.backends, t.router) {
		if s == nil {
			continue
		}
		c, err := cpuTime(s.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// storeProbePrograms bounds the programs the store probe persists.
const storeProbePrograms = 512

// storeLayers persists the workload's programs through an in-process
// service with a store, then times a second service's warm start from that
// store.  For the wide workload, whose server warm starts, the warm-started
// service is returned to replay the request sequence on; otherwise nil.
func storeLayers(e *env, w spec, progs []*program, o *outcome, tr *tracer) (*service.Service, error) {
	dir := filepath.Join(e.work, "probe-store")
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	writer := service.New(service.Options{CapacityBytes: defaultCacheBytes, Store: st})
	probe := progs[:min(len(progs), storeProbePrograms)]
	for i, p := range probe {
		o.attempted++
		rep, err := writer.RunSource(context.Background(), p.name, p.source, core.LevelStack, core.WithDTB, core.DefaultConfig())
		if why := p.checkReport(rep, err); why != "" {
			o.failed++
			o.violate("store probe request %d: %s", i, why)
			break
		}
	}
	files, bytes, err := dirUsage(dir)
	if err != nil {
		return nil, err
	}
	o.setIf("store.kb_per_artifact", "KB")(float64(bytes)/1024/float64(files), files > 0)

	svc := service.New(service.Options{CapacityBytes: w.cacheBytes, Store: st})
	h := tr.begin("Service.Warmstart", 0, 0)
	loaded, err := svc.Warmstart(-1)
	took := tr.end(h)
	if err != nil {
		return nil, err
	}
	o.setIf("store.warmstart_us_per_artifact", "us")(float64(took)/1e3/float64(loaded), loaded > 0)
	o.report["store_probe_artifacts"] = loaded
	if w.store {
		return svc, nil
	}
	return nil, nil
}

// checkReport is check for an in-process answer.
func (p *program) checkReport(rep *sim.Report, err error) string {
	if err != nil {
		return err.Error()
	}
	return p.verify(rep.Output, simStats{rep.Instructions, int64(rep.TotalCycles), rep.Measured.HD})
}

// serviceStats flattens the service's counters the way scrapeStats
// flattens /v1/stats, so the same keys name the same counters.
func serviceStats(svc *service.Service) counters {
	c := counters{}
	data, err := json.Marshal(svc.Stats())
	if err != nil {
		return c
	}
	var doc any
	if json.Unmarshal(data, &doc) == nil {
		c.add("stats", doc)
	}
	return c
}

// serviceLayers replays the request sequence in-process on one goroutine:
// one untimed pass to make the working set resident, then blocks of calls
// alternately untraced and with a span around every RunSource call.
func serviceLayers(svc *service.Service, progs []*program, phase time.Duration, o *outcome, tr *tracer) layerCounts {
	ctx := context.Background()
	cfg := core.DefaultConfig()
	next := 0
	call := func() {
		p := progs[next%len(progs)]
		next++
		o.attempted++
		rep, err := svc.RunSource(ctx, p.name, p.source, core.LevelStack, core.WithDTB, cfg)
		if why := p.checkReport(rep, err); why != "" {
			o.failed++
			if o.failed == 1 {
				o.violate("in-process request: %s", why)
			}
		}
	}
	for range progs {
		call()
	}

	// Untraced and traced blocks alternate, so a change in the machine's
	// speed during the phase lands on both sides of the overhead estimate.
	const block = 32
	var plain, traced time.Duration
	var durs []float64
	before := serviceStats(svc)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for b := 0; b%2 == 1 || time.Since(start) < phase; b++ {
		t0 := time.Now()
		for range block {
			if b%2 == 0 {
				call()
				continue
			}
			h := tr.begin("Service.RunSource", next, 0)
			call()
			durs = append(durs, float64(tr.end(h))/1e3)
		}
		if b%2 == 0 {
			plain += time.Since(t0)
		} else {
			traced += time.Since(t0)
		}
	}
	runtime.ReadMemStats(&ms1)
	after := serviceStats(svc)
	all := float64(next - len(progs))

	n := len(durs)
	var sum float64
	for _, d := range durs {
		sum += d
	}
	slices.Sort(durs)
	o.set("service.run_us", "us", durs[n/2])
	o.set("service.run_us_mean", "us", sum/float64(n))
	o.set("runtime.gc_per_1k_req", "count", float64(ms1.NumGC-ms0.NumGC)*1000/all)
	// Equal request counts on both sides, so the ratio of times is the
	// ratio of rates.
	o.set("bench.tracing_overhead", "ratio", traced.Seconds()/plain.Seconds()-1)
	builds, ok1 := delta(before, after, "stats.Registry.Builds")
	replayers, ok2 := delta(before, after, "stats.Pool.Misses")
	c := layerCounts{builds: builds / all, replayers: replayers / all, ok: ok1 && ok2}
	o.report["per_req_builds"], o.report["per_req_new_replayers"] = c.builds, c.replayers
	return c
}

// layerCounts is how often, per request, the service ran the layers that
// only some requests reach; ok is false when its counters are absent.
type layerCounts struct {
	builds, replayers float64
	ok                bool
}

// isolatedLayers times each lower layer's public function on fresh objects,
// cycling through the programs for the phase (at least one pipeline each
// for the first eight programs).
func isolatedLayers(progs []*program, phase time.Duration, o *outcome, tr *tracer) {
	cfg := core.DefaultConfig()
	sums := map[string]time.Duration{}
	var runs int
	var instrs int64
	start := time.Now()
	for i := 0; i < min(8, len(progs)) || time.Since(start) < phase; i++ {
		p := progs[i%len(progs)]
		root := tr.begin("pipeline", -1-i, 0)
		step := func(name string, f func() error) bool {
			h := tr.begin(name, -1-i, root)
			err := f()
			sums[name] += tr.end(h)
			if err != nil {
				o.failed++
				o.violate("isolated %s on %s: %v", name, p.name, err)
			}
			return err == nil
		}
		o.attempted++
		var art *core.Artifact
		var pp *sim.PredecodedProgram
		var r *sim.Replayer
		var cold, warm *sim.Report
		ok := step("core.BuildSource", func() (err error) {
			art, err = core.BuildSource(p.name, p.source, core.LevelStack)
			return err
		}) && step("Artifact.Predecoded", func() (err error) {
			pp, err = art.Predecoded(cfg.Degree)
			return err
		}) && step("PredecodedProgram.Trace", func() error {
			_, err := pp.Trace()
			return err
		}) && step("sim.NewReplayer", func() (err error) {
			r, err = sim.NewReplayer(pp, core.WithDTB, cfg)
			return err
		}) && step("Replayer.ReplayDerived(fresh)", func() (err error) {
			cold, err = r.ReplayDerived()
			if err == nil {
				cold = cold.Clone()
			}
			return err
		}) && step("Replayer.ReplayDerived", func() (err error) {
			warm, err = r.ReplayDerived()
			return err
		})
		tr.end(root)
		if !ok {
			continue
		}
		for _, rep := range []*sim.Report{cold, warm} {
			if why := p.checkReport(rep, nil); why != "" {
				o.failed++
				o.violate("isolated derive: %s", why)
				break
			}
		}
		runs++
		instrs += warm.Instructions
	}
	if runs == 0 {
		return
	}
	us := func(name string) float64 { return float64(sums[name]) / 1e3 / float64(runs) }
	o.set("core.build_us", "us", us("core.BuildSource"))
	o.set("core.predecode_us", "us", us("Artifact.Predecoded"))
	o.set("trace.record_us", "us", us("PredecodedProgram.Trace"))
	o.set("sim.new_replayer_us", "us", us("sim.NewReplayer"))
	o.set("sim.derive_us", "us", us("Replayer.ReplayDerived"))
	o.set("sim.derive_fresh_us", "us", us("Replayer.ReplayDerived(fresh)"))
	o.set("sim.derive_ns_per_instr", "ns", float64(sums["Replayer.ReplayDerived"])/float64(instrs))
	o.report["isolated_pipelines"] = runs

	var steps, hd float64
	for _, p := range progs {
		steps += float64(p.want.Instructions)
		hd += p.want.DTBHitRatio
	}
	o.set("sim.instructions_per_run", "count", steps/float64(len(progs)))
	o.set("dtb.hit_ratio", "ratio", hd/float64(len(progs)))
}

// attribute splits service.run_us_mean into the isolated layer costs times
// their per-request counts, and what is left.  A request that builds also
// predecodes and records a trace; a request without an idle replayer
// builds one and derives on it fresh; the rest derive on a warm one.
func attribute(o *outcome, c layerCounts) {
	run := o.metrics["service.run_us_mean"].Value
	cpu, ok := o.metrics["uhmd.cpu_us_per_req"]
	o.setIf("uhmd.http_us", "us")(cpu.Value-run, ok)
	b, m := c.builds, c.replayers
	v := func(name string) float64 { return o.metrics[name].Value }
	attributed := b*(v("core.build_us")+v("core.predecode_us")+v("trace.record_us")) +
		m*(v("sim.new_replayer_us")+v("sim.derive_fresh_us")) + (1-m)*v("sim.derive_us")
	o.setIf("service.unattributed_us", "us")(run-attributed, c.ok)
}
