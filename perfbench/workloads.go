package main

import (
	"cmp"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"syscall"
)

// The default workload configurations. allreduce-fattree runs 256
// ranks, the largest count whose traced run (causal recording
// included) fits the per-run time and memory budget; four back-to-back
// allreduces keep each instance at 1024 timed operations.
var (
	defaultAllreduce = allreduceCfg{ranks: 256, elems: 1000, iters: 4, skewNS: 5000}
	defaultP2P       = p2pCfg{ranks: 8, rounds: 1200, pool: 12, bigPool: 4}
)

// workloads lists the benchmark's workloads, in BENCHMARK.json order.
func workloads() []workload {
	return []workload{allreduceWorkload(defaultAllreduce), p2pWorkload(defaultP2P), lintWorkload(lintDir, defaultLintUnits)}
}

func workloadNames() []string {
	var names []string
	for _, wl := range workloads() {
		names = append(names, wl.name)
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, wl := range workloads() {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// baseline.json records, per workload, the default and held-out seeds
// with their fingerprints, a baseline run of every metric, and the host
// it was measured on.
//
//go:embed baseline.json
var baselineJSON []byte

type baselineFile struct {
	Workloads map[string]baselineWorkload `json:"workloads"`
}

type baselineWorkload struct {
	Default      uint64            `json:"default_seed"`
	HeldOut      uint64            `json:"held_out_seed"`
	Fingerprints map[string]string `json:"fingerprints"`
}

// recordedSeeds is parsed once from the embedded baseline.
var recordedSeeds = func() map[string]baselineWorkload {
	var b baselineFile
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		panic(fmt.Sprintf("perfbench: embedded baseline.json: %v", err))
	}
	return b.Workloads
}()

// recordedFingerprint returns the fingerprint baseline.json records for
// (workload, seed).
func recordedFingerprint(name string, seed uint64) (uint64, bool) {
	s, ok := recordedSeeds[name].Fingerprints[strconv.FormatUint(seed, 10)]
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 0, 64)
	return v, err == nil
}

// runHistory is the cross-check against BENCH_9: the allreduce workload
// at BENCH_9's configuration must reproduce its sim time and
// fingerprint exactly.
func runHistory(stdout, stderr io.Writer) int {
	h := historyCheck
	wl := allreduceWorkload(h.cfg)
	s, err := runOnce(wl, h.seed, &observer{})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "history: %d ranks, %d values, seed %d: sim_time %d ns (want %d), fingerprint %#x (want %#x), %d events, wall %.1f s, %d failed\n",
		h.cfg.ranks, h.cfg.elems, h.seed, s.out.simNS, h.simNS, s.out.fingerprint, h.fingerprint, s.out.events, s.wall.Seconds(), s.out.failed)
	if s.out.simNS != h.simNS || s.out.fingerprint != h.fingerprint || s.out.failed != 0 {
		fmt.Fprintln(stderr, "perfbench: history cross-check FAILED")
		return 1
	}
	fmt.Fprintln(stdout, "history: matches BENCH_9")
	return 0
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sortedKeys returns m's keys in order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
