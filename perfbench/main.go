// Command perfbench is the repository benchmark. It runs one named
// workload for a seed, times the set-up and the work on the host,
// checks every output, and prints its metrics by name and unit, last of
// all as one JSON object:
//
//	perfbench -workload p2p-phi -seed 1 -seconds 15 -trace 0
//
// With -trace 0 it reports the end-to-end metrics, medians over as
// many fresh instances as fit in -seconds, each in a process of its
// own. With -trace 1 it reports the per-layer split: a CPU profile of
// otherwise uninstrumented instances, and one instance traced with a
// metrics registry, a causal recorder and host spans. -history runs the
// BENCH_9 cross-check instead. See README.md for the metric catalogue.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is the parsed command line.
type config struct {
	seed    uint64
	seconds float64
	trace   int
}

// maxProcs is the GOMAXPROCS the benchmark pins, capped at the host's
// CPU count: the simulator runs one process at a time, and the second
// processor takes the garbage collector.
const maxProcs = 2

// lintDir receives lint-synth's generated package, relative to the
// checkout root the benchmark runs from.
const lintDir = ".bench_build/lintsynth"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process exit.
func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	var name, instance string
	var history bool
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&name, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 0, "input seed (0 = the workload's default seed)")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "host seconds to keep starting timed instances")
	fs.IntVar(&cfg.trace, "trace", 0, "1 = report the per-layer split from a profiled and a traced instance")
	fs.BoolVar(&history, "history", false, "run the BENCH_9 allreduce cross-check instead (about a minute)")
	fs.StringVar(&instance, "instance", "", "run one instance, full or setup (set-up only), and print its report as JSON; the timed run starts these")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	if history {
		return runHistory(stdout, stderr)
	}
	wl, ok := lookupWorkload(name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seed == 0 {
		cfg.seed = recordedSeeds[wl.name].Default
	}
	if instance != "" {
		return runInstance(wl, cfg.seed, instance, stdout, stderr)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return execute(wl, cfg, spawnInstance(exe, wl.name, cfg.seed, stderr), stdout, stderr)
}

// execute runs one workload invocation and prints its report. The timed
// run takes its instances from measure.
func execute(wl workload, cfg config, measure measureFunc, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d trace=%d seconds=%g gomaxprocs=%d nproc=%d go=%s\n",
		wl.name, cfg.seed, cfg.trace, cfg.seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	var res *result
	var err error
	if cfg.trace != 0 {
		res, err = traced(wl, cfg, stdout)
	} else {
		res, err = timed(wl, cfg, measure, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout)
	if !res.correct() {
		return 1
	}
	return 0
}

// result is one invocation's report.
type result struct {
	attempted, failed int
	// gateFailures are whole-run checks that failed (fingerprint
	// agreement), each counted once in failed.
	gateFailures []string
	metrics      []metric
}

// metric is one named, unit-carrying value.
type metric struct {
	name  string
	value float64
	unit  string
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) gate(format string, args ...any) {
	r.failed++
	r.gateFailures = append(r.gateFailures, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// print writes the metric lines and, last, the JSON result object.
func (r *result) print(w io.Writer) {
	for _, g := range r.gateFailures {
		fmt.Fprintln(w, "GATE FAILED:", g)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "fail_ratio %.6g (%d failed / %d attempted)\n", ratio, r.failed, r.attempted)
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jm, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-32s %16.6f %s\n", m.name, m.value, m.unit)
		ms[m.name] = jm{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	if err != nil {
		panic(err) // plain floats and strings always marshal
	}
	fmt.Fprintln(w, string(line))
}

// sample is one instance measured in this process.
type sample struct {
	setup, wall time.Duration
	out         outcome
}

// instanceReport is what one instance process reports to the timed run.
type instanceReport struct {
	SetupS      float64   `json:"setup_s"`
	WallS       float64   `json:"wall_s"`
	PeakRSSMB   float64   `json:"peak_rss_mb"`
	Attempted   int       `json:"attempted"`
	Failed      int       `json:"failed"`
	Fingerprint uint64    `json:"fingerprint"`
	SimNS       int64     `json:"sim_ns"`
	Events      int64     `json:"events"`
	OpsUS       []float64 `json:"ops_us"`
	Problems    []string  `json:"problems"`
}

// report is s as an instance process reports it, with the process's
// peak resident set so far.
func report(s sample) instanceReport {
	return instanceReport{
		SetupS: s.setup.Seconds(), WallS: s.wall.Seconds(), PeakRSSMB: peakRSSMB(),
		Attempted: s.out.attempted, Failed: s.out.failed, Fingerprint: s.out.fingerprint,
		SimNS: s.out.simNS, Events: s.out.events, OpsUS: s.out.opsUS, Problems: s.out.problems,
	}
}

// measureFunc measures one fresh instance: its set-up alone, or its
// set-up, work and check.
type measureFunc func(setupOnly bool) (instanceReport, error)

// measureInstance measures one instance of wl in this process.
func measureInstance(wl workload, seed uint64, setupOnly bool) (instanceReport, error) {
	if setupOnly {
		t0 := time.Now()
		if _, err := wl.build(seed, &observer{}); err != nil {
			return instanceReport{}, err
		}
		return instanceReport{SetupS: time.Since(t0).Seconds()}, nil
	}
	s, err := runOnce(wl, seed, &observer{})
	if err != nil {
		return instanceReport{}, err
	}
	return report(s), nil
}

// runInstance is the -instance mode: it measures one instance and
// prints its report as one JSON line.
func runInstance(wl workload, seed uint64, mode string, stdout, stderr io.Writer) int {
	if mode != "full" && mode != "setup" {
		fmt.Fprintf(stderr, "perfbench: -instance %q: want full or setup\n", mode)
		return 2
	}
	if wl.prepare != nil {
		if err := wl.prepare(seed); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	r, err := measureInstance(wl, seed, mode == "setup")
	if err == nil {
		err = json.NewEncoder(stdout).Encode(r)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// spawnInstance measures each instance in a process of its own: exe
// run with -instance. A finished DCFA world is never freed (see
// README.md), so instances that shared a process would each start on a
// larger heap than the last.
func spawnInstance(exe, name string, seed uint64, stderr io.Writer) measureFunc {
	return func(setupOnly bool) (instanceReport, error) {
		mode := "full"
		if setupOnly {
			mode = "setup"
		}
		var out bytes.Buffer
		cmd := exec.Command(exe, "-instance", mode, "-workload", name, "-seed", strconv.FormatUint(seed, 10))
		cmd.Stdout, cmd.Stderr = &out, stderr
		// An instance dies with the timed run, if that is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		var r instanceReport
		if err := cmd.Run(); err != nil {
			return r, fmt.Errorf("%s instance: %w", mode, err)
		}
		if err := json.Unmarshal(out.Bytes(), &r); err != nil {
			return r, fmt.Errorf("%s instance report: %w", mode, err)
		}
		return r, nil
	}
}

// Every run times at least minSetups set-ups, and keeps timing set-ups
// alone for at least setupPhase, so that setup_s is a steady median
// even when the work itself fits only once in -seconds and one set-up
// takes milliseconds.
const (
	minSetups  = 9
	setupPhase = time.Second
)

// timed is the -trace 0 run: fresh instances back to back until
// -seconds have passed (at least one), then set-up-only instances until
// the set-up minimums are met. It reports medians; every instance must
// reproduce the first one's fingerprint.
func timed(wl workload, cfg config, measure measureFunc, log io.Writer) (*result, error) {
	var full []instanceReport
	var setups []float64
	start := time.Now()
	for len(full) == 0 || time.Since(start).Seconds() < cfg.seconds {
		r, err := measure(false)
		if err != nil {
			return nil, err
		}
		logInstance(log, len(full), r)
		full = append(full, r)
		setups = append(setups, r.SetupS)
	}
	for phase := time.Now(); len(setups) < minSetups || time.Since(phase) < setupPhase; {
		r, err := measure(true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.SetupS)
	}
	res := &result{}
	walls := make([]float64, len(full))
	peaks := make([]float64, len(full))
	for i, r := range full {
		walls[i], peaks[i] = r.WallS, r.PeakRSSMB
		res.attempted += r.Attempted
		res.failed += r.Failed
		if r.Fingerprint != full[0].Fingerprint {
			res.gate("instance %d fingerprint %#x != instance 0 %#x", i, r.Fingerprint, full[0].Fingerprint)
		}
	}
	fmt.Fprintf(log, "%d full instances, %d set-ups\n", len(full), len(setups))
	reportFingerprint(log, wl.name, cfg.seed, full[0].Fingerprint)
	m := map[string]float64{"wall_s": median(walls), "setup_s": median(setups), "peak_rss_mb": median(peaks)}
	for _, e := range endToEnd {
		res.add(e.name, m[e.name], e.unit)
	}
	logModelled(log, full[0])
	return res, nil
}

// runOnce builds, runs and checks one instance.
func runOnce(wl workload, seed uint64, o *observer) (sample, error) {
	var s sample
	t0 := time.Now()
	inst, err := wl.build(seed, o)
	if err != nil {
		return s, err
	}
	t1 := time.Now()
	runErr := inst.run(o)
	s.setup, s.wall = t1.Sub(t0), time.Since(t1)
	s.out = inst.check(o)
	s.out.runFailed(runErr)
	return s, nil
}

func logInstance(w io.Writer, i int, r instanceReport) {
	fmt.Fprintf(w, "instance %d: setup %.4f s, wall %.4f s, peak rss %.1f MB, %d ops, %d failed, fingerprint %#x\n",
		i, r.SetupS, r.WallS, r.PeakRSSMB, r.Attempted, r.Failed, r.Fingerprint)
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  problem:", p)
	}
}

// logModelled prints the deterministic modelled results: the same seed
// reproduces them exactly.
func logModelled(w io.Writer, r instanceReport) {
	if r.Events == 0 {
		return
	}
	p50, p99 := percentile(r.OpsUS, 50), percentile(r.OpsUS, 99)
	fmt.Fprintf(w, "modelled sim_ms %.6f ms, sim_op_p50_us %.3f us, sim_op_p99_us %.3f us over %d ops, %d events\n",
		float64(r.SimNS)/1e6, p50, p99, len(r.OpsUS), r.Events)
}

// reportFingerprint prints the run's fingerprint and compares it with
// the value recorded for this seed, if any. A mismatch is reported, not
// failed: a later change may re-baseline the schedule on purpose.
func reportFingerprint(w io.Writer, name string, seed uint64, fp uint64) {
	rec, ok := recordedFingerprint(name, seed)
	switch {
	case !ok:
		fmt.Fprintf(w, "fingerprint %#x (no recorded value for seed %d)\n", fp, seed)
	case rec == fp:
		fmt.Fprintf(w, "fingerprint %#x matches the recorded baseline\n", fp)
	default:
		fmt.Fprintf(w, "fingerprint %#x DIFFERS from the recorded baseline %#x (schedule re-baselined?)\n", fp, rec)
	}
}

// median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile is the nearest-rank q-th percentile of xs (reordered).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q / 100 * float64(len(xs))))
	return xs[min(max(k, 1), len(xs))-1]
}
