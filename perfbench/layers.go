package main

import (
	"strings"

	"repro/internal/analysis"
	"repro/internal/causal"
	"repro/internal/metrics"
)

// layerMetric is one metric of a catalogue; better is "lower" or
// "higher".
type layerMetric struct{ name, unit, better string }

// shareLayers are the packages whose CPU share the profile folder
// reports (<name>.share): the repo's internal packages, the benchmark's
// own code (harness) and everything else (other).
var shareLayers = []string{
	"sim", "core", "dcfa", "scif", "ib", "pcie", "topo", "machine", "cluster",
	"metrics", "causal", "analysis", "perfmodel", "faults", "trace", "harness", "other",
}

// runtimeShares split the samples whose leaf is a Go runtime frame.
var runtimeShares = []string{"sched", "mem", "maps", "memmove"}

// critCategories maps the causal critical-path categories to metric
// name stems.
var critCategories = []struct{ cat, stem string }{
	{causal.CatCompute, "compute"},
	{causal.CatEager, "eager_copy"},
	{causal.CatRndvRTT, "rendezvous_rtt"},
	{causal.CatCmd, "cmd_channel"},
	{causal.CatDMA, "dma_coi"},
	{causal.CatWait, "wait"},
	{causal.CatRecovery, "recovery"},
}

// layerCatalogue is every per-layer metric, in print order. Every
// workload reports all of them; a layer a workload does not touch
// reports 0.
func layerCatalogue() []layerMetric {
	var c []layerMetric
	add := func(name, unit string) { c = append(c, layerMetric{name, unit, "lower"}) }
	add("sim_ms", "ms")
	add("sim_op_p50_us", "us")
	add("sim_op_p99_us", "us")
	add("sim.ops", "count")
	add("fail_ratio", "ratio")
	add("sim.events", "count")
	add("sim.host_ns_per_event", "ns")
	for _, l := range shareLayers {
		add(l+".share", "share")
	}
	for _, r := range runtimeShares {
		add("runtime."+r+"_share", "share")
	}
	for _, n := range []string{"eager", "sender_rzv", "recv_rzv", "simultaneous_rzv", "mispredicts"} {
		add("core.proto."+n, "count")
	}
	add("core.any_source_locks", "count")
	add("core.mrcache.hits", "count")
	c[len(c)-1].better = "higher"
	add("core.mrcache.misses", "count")
	add("core.mrcache.evictions", "count")
	add("core.mrcache.hit_ratio", "ratio")
	c[len(c)-1].better = "higher"
	add("core.offload.staged_bytes", "B")
	add("core.offload.fallbacks", "count")
	add("dcfa.cmds", "count")
	add("dcfa.cmd_rtt_mean_us", "us")
	add("ib.wr_posted", "count")
	add("ib.wr_completed", "count")
	add("ib.rdma_read_bytes", "B")
	add("ib.rdma_write_bytes", "B")
	add("pcie.dma_copies", "count")
	add("pcie.dma_bytes", "B")
	add("pcie.dma_busy_us", "us")
	add("topo.interior_bytes", "B")
	add("runtime.alloc_mb", "MB")
	add("runtime.mallocs", "count")
	add("runtime.gc_cycles", "count")
	for _, cc := range critCategories {
		add("crit."+cc.stem+"_us", "us")
	}
	add("obs.traced_wall_ratio", "ratio")
	for _, a := range analysis.All() {
		add("lint.rule_ms."+a.Name, "ms")
	}
	add("lint.funcs", "count")
	add("lint.findings", "count")
	add("lint.typecheck_share", "share")
	return c
}

// endToEnd is the end-to-end catalogue: lower is better for all.
var endToEnd = []layerMetric{{"wall_s", "s", "lower"}, {"setup_s", "s", "lower"}, {"peak_rss_mb", "MB", "lower"}}

// registryLayers reads the per-layer counters out of a metrics
// registry, summed over actors (ranks, HCAs, buses, daemons).
func registryLayers(reg *metrics.Registry, m map[string]float64) {
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		v := float64(c.Value)
		name := c.Name
		switch {
		case strings.HasPrefix(name, "proto."):
			m["core.proto."+strings.ReplaceAll(strings.TrimPrefix(name, "proto."), "-", "_")] += v
		case name == "any-source.locks":
			m["core.any_source_locks"] += v
		case strings.HasPrefix(name, "mrcache."):
			m["core."+name] += v
		case name == "offload.staged-bytes":
			m["core.offload.staged_bytes"] += v
		case name == "offload.fallbacks":
			m["core.offload.fallbacks"] += v
		case strings.HasPrefix(name, "qp") && strings.HasSuffix(name, ".posted"):
			m["ib.wr_posted"] += v
		case strings.HasPrefix(name, "qp") && strings.HasSuffix(name, ".completed"):
			m["ib.wr_completed"] += v
		case strings.HasPrefix(name, "rdma-read.bytes."):
			m["ib.rdma_read_bytes"] += v
		case strings.HasPrefix(name, "rdma-write.bytes."):
			m["ib.rdma_write_bytes"] += v
		case name == "dma.copies":
			m["pcie.dma_copies"] += v
		case name == "dma.bytes":
			m["pcie.dma_bytes"] += v
		case name == "dma.busy-ns":
			m["pcie.dma_busy_us"] += v / 1e3
		}
	}
	var cmds, rttNS float64
	for _, h := range snap.Histograms {
		if strings.HasPrefix(h.Name, "cmd-rtt.") {
			cmds += float64(h.Count)
			rttNS += float64(h.Sum)
		}
	}
	m["dcfa.cmds"] = cmds
	if cmds > 0 {
		m["dcfa.cmd_rtt_mean_us"] = rttNS / cmds / 1e3
	}
	if n := m["core.mrcache.hits"] + m["core.mrcache.misses"]; n > 0 {
		m["core.mrcache.hit_ratio"] = m["core.mrcache.hits"] / n
	}
}

// critLayers folds the causal critical-path breakdown (which sums to
// the simulated completion time) into crit.<category>_us.
func critLayers(rep *causal.Report, m map[string]float64) {
	for _, cc := range critCategories {
		m["crit."+cc.stem+"_us"] = rep.Breakdown[cc.cat].Micros()
	}
}
