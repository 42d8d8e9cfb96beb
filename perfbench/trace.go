package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/causal"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// profileWork is how much work the -trace 1 CPU profile covers: about
// 300 samples at the profiler's 100 Hz.
const profileWork = 3 * time.Second

// traced is the -trace 1 run, kept apart from the timed runs.
//
//  1. Profiled instances, uninstrumented otherwise, until their work
//     covers profileWork: a runtime/pprof CPU profile and MemStats are
//     read around each instance's work, so the layer split describes
//     the same code the timed runs measure.
//  2. One traced instance with a metrics registry and a causal
//     recorder attached through SetMetrics/SetCausal, and host spans
//     around the benchmark's calls. It must reproduce the profiled
//     fingerprint: instrumentation is passive.
func traced(wl workload, cfg config, log io.Writer) (*result, error) {
	if wl.prepare != nil {
		if err := wl.prepare(cfg.seed); err != nil {
			return nil, err
		}
	}
	res := &result{}
	m := map[string]float64{}
	counts := map[string]int64{}
	var plain []sample
	var profiled time.Duration
	for len(plain) == 0 || profiled < profileWork {
		var ms0, ms1 runtime.MemStats
		var prof bytes.Buffer
		o := &observer{}
		t0 := time.Now()
		inst, err := wl.build(cfg.seed, o)
		if err != nil {
			return nil, err
		}
		s := sample{setup: time.Since(t0)}
		runtime.ReadMemStats(&ms0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		t1 := time.Now()
		runErr := inst.run(o)
		s.wall = time.Since(t1)
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&ms1)
		s.out = inst.check(o)
		s.out.runFailed(runErr)
		if len(plain) == 0 {
			m["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
			m["runtime.mallocs"] = float64(ms1.Mallocs - ms0.Mallocs)
			m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		}
		if err := foldProfile(prof.Bytes(), counts); err != nil {
			return nil, err
		}
		logInstance(log, len(plain), report(s))
		plain = append(plain, s)
		profiled += s.wall
		runtime.GC()
	}
	base := plain[0].out
	for i, s := range plain {
		res.attempted += s.out.attempted
		res.failed += s.out.failed
		if s.out.fingerprint != base.fingerprint {
			res.gate("profiled instance %d fingerprint %#x != instance 0 %#x", i, s.out.fingerprint, base.fingerprint)
		}
	}
	shares, nsamples, err := sharesOf(counts)
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		m[k] = v
	}
	fmt.Fprintf(log, "cpu profile: %d samples over %.3f s of work in %d instances\n", nsamples, profiled.Seconds(), len(plain))

	o := &observer{reg: metrics.New(), rec: causal.New()}
	tr, err := runOnce(wl, cfg.seed, o)
	if err != nil {
		return nil, err
	}
	logInstance(log, len(plain), report(tr))
	res.attempted += tr.out.attempted
	res.failed += tr.out.failed
	reportFingerprint(log, wl.name, cfg.seed, base.fingerprint)
	if tr.out.fingerprint != base.fingerprint {
		res.gate("traced fingerprint %#x != untraced %#x: instrumentation perturbed the schedule",
			tr.out.fingerprint, base.fingerprint)
	}
	registryLayers(o.reg, m)
	if tr.out.simNS > 0 {
		crit := causal.Analyze(wl.name, o.rec.Events(), sim.Time(tr.out.simNS))
		critLayers(crit, m)
		fmt.Fprintf(log, "causal: %d events, %d messages, critical path %d steps\n", crit.Events, crit.Messages, crit.Steps)
	}
	for k, v := range base.layer {
		m[k] = v
	}
	walls := make([]float64, len(plain))
	for i, s := range plain {
		walls[i] = s.wall.Seconds()
	}
	wall := median(walls)
	m["sim_ms"] = float64(base.simNS) / 1e6
	m["sim_op_p50_us"] = percentile(base.opsUS, 50)
	m["sim_op_p99_us"] = percentile(base.opsUS, 99)
	m["sim.ops"] = float64(len(base.opsUS))
	m["sim.events"] = float64(base.events)
	if base.events > 0 {
		m["sim.host_ns_per_event"] = wall * 1e9 / float64(base.events)
	}
	m["obs.traced_wall_ratio"] = tr.wall.Seconds() / wall
	m["fail_ratio"] = float64(res.failed) / float64(res.attempted)

	for _, s := range o.spans {
		fmt.Fprintf(log, "span %-24s %12.6f s\n", s.name, s.dur.Seconds())
	}
	for _, lm := range layerCatalogue() {
		res.add(lm.name, m[lm.name], lm.unit)
	}
	return res, nil
}
