// Command perfbench is the repository's end-to-end benchmark of the uhmd
// serving stack.
//
// It starts real uhmd processes built from the checkout, drives them over
// HTTP with its own closed-loop load generator, checks every reply against
// the generator's oracle output and against full simulation, and prints one
// JSON result line.  With --trace 1 it instead measures the per-layer
// metrics: counters scraped from /v1/stats and CPU read from /proc around an
// HTTP window, then the same request sequence replayed in-process through
// the service with spans around each call, and each lower layer's public
// function timed in isolation on the same programs.
//
// Run it through run.py, which builds both binaries first:
//
//	python3 perfbench/run.py --workload hot --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload's run produced: the result plus a report
// of everything else measured (printed before the result line), and the
// violated invariants.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	report            map[string]any
	violations        []string
	// absent names the metrics whose counters the program under test does
	// not expose.
	absent []string
}

func (o *outcome) set(name, unit string, v float64) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// setIf returns a setter for a metric built on counters: it sets the value
// when ok, and otherwise records the metric as absent.
func (o *outcome) setIf(name, unit string) func(v float64, ok bool) {
	return func(v float64, ok bool) {
		if ok {
			o.set(name, unit, v)
		} else {
			o.absent = append(o.absent, name)
		}
	}
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

func (o *outcome) count(st *loadStats) {
	o.attempted += st.attempted
	o.failed += st.failed
	if st.firstErr != "" {
		o.violate("first failed operation: %s", st.firstErr)
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of the generated programs")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	uhmd := fs.String("uhmd", "", "uhmd binary under test")
	work := fs.String("work", "", "scratch directory for server stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *uhmd == "" || *work == "" || *seconds < 1 || *trace != 0 && *trace != 1 {
		return errors.New("usage: perfbench --uhmd BIN --work DIR --workload NAME --seed N --seconds S --trace 0|1")
	}
	var sel []spec
	if *name == "all" {
		sel = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		sel = []spec{w}
	}
	dir := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	window := time.Duration(*seconds) * time.Second
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range sel {
		e := &env{uhmd: *uhmd, work: filepath.Join(dir, w.name)}
		progs, err := generatePrograms(*seed, w.programs)
		if err != nil {
			return fmt.Errorf("%s: generate programs: %w", w.name, err)
		}
		o := &outcome{metrics: map[string]metric{}, report: map[string]any{
			"workload": w.name, "seed": *seed, "programs": len(progs), "connections": w.conns,
			"sim_digest": digest(progs),
		}}
		if *trace == 1 {
			err = traced(e, w, progs, window, o, filepath.Join(*work, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed)))
		} else {
			err = endToEnd(e, w, progs, window, o)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		o.report["attempted"], o.report["failed"] = o.attempted, o.failed
		o.report["violations"] = o.violations
		o.report["absent"] = o.absent
		o.report["metrics"] = o.metrics
		line, err := json.Marshal(o.report)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		printTable(w.name, o)

		total.Correct = total.Correct && o.failed == 0 && len(o.violations) == 0
		total.Attempted += o.attempted
		total.Failed += o.failed
		for k, m := range o.metrics {
			if len(sel) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// printTable writes the workload's metrics, one per line, to standard error.
func printTable(name string, o *outcome) {
	keys := make([]string, 0, len(o.metrics))
	for k := range o.metrics {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	fmt.Fprintf(os.Stderr, "%s: %d failed of %d attempted\n", name, o.failed, o.attempted)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", k, o.metrics[k].Value, o.metrics[k].Unit)
	}
	for _, a := range o.absent {
		fmt.Fprintf(os.Stderr, "  %-34s absent\n", a)
	}
	for _, v := range o.violations {
		fmt.Fprintf(os.Stderr, "  VIOLATION: %s\n", v)
	}
}

// setupRepeats is how many times each run sets its topology up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 5

// endToEnd measures the workload's end-to-end metrics with nothing traced.
func endToEnd(e *env, w spec, progs []*program, window time.Duration, o *outcome) error {
	var setups []float64
	var topo *topology
	for k := range setupRepeats {
		pass := &loadStats{}
		t, d, err := e.start(w, progs, pass)
		if err != nil {
			return err
		}
		o.count(pass)
		setups = append(setups, d.Seconds())
		if k < setupRepeats-1 {
			t.stop()
		} else {
			topo = t
		}
	}
	defer topo.stop()

	timed := drive(topo.front, progs, w.conns, window)
	o.count(timed)
	var rssKB int64
	for _, s := range topo.servers() {
		kb, err := peakRSSKB(s.cmd.Process.Pid)
		if err != nil {
			return err
		}
		rssKB += kb
	}
	if w.fleet {
		checkSingleBuild(topo, progs, o)
	}
	if len(timed.lat) == 0 {
		return fmt.Errorf("no correct reply in the measured window (%s)", timed.firstErr)
	}
	share, rate, p50 := timed.perSlice()
	o.set("throughput_rps", "1/s", atNoSteal(share, rate, true))
	o.set("p50_ms", "ms", atNoSteal(share, p50, false))
	o.set("rss_mb", "MB", float64(rssKB)/1024)
	o.set("setup_s", "s", median(setups))
	o.report["client_p99_ms"] = ms(timed.quantile(0.99))
	o.report["client_samples"] = len(timed.lat)
	o.report["setups_s"] = setups
	o.report["raw_throughput_rps"] = interquartileMean(rate)
	o.report["raw_p50_ms"] = ms(timed.quantile(0.5))
	if len(share) > 0 {
		o.report["stolen_share_median"] = median(share)
	}
	return nil
}

// interquartileMean is the mean of the middle half of xs.
func interquartileMean(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// checkSingleBuild asserts the fleet invariant: with consistent-hash
// placement every distinct program is built on exactly one backend, so the
// fleet's builds since start equal the number of distinct programs.
func checkSingleBuild(topo *topology, progs []*program, o *outcome) {
	o.attempted++
	c, err := scrapeStats(topo.front)
	builds, ok := c["fleet.builds"]
	switch {
	case err != nil:
		o.violate("fleet stats: %v", err)
	case !ok:
		o.violate("fleet stats carry no fleet.builds counter")
	case int(builds) != len(progs):
		o.violate("single-build invariant: fleet built %v artifacts for %d distinct programs", builds, len(progs))
	default:
		o.report["fleet_builds"] = builds
		return
	}
	o.failed++
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
