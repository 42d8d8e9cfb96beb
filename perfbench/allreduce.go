package main

import (
	"encoding/binary"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/topo"
)

// allreduceCfg is the allreduce-fattree workload: the internal/bench
// scale configuration (host-verbs ranks, fat tree, lazy connect, ring
// algorithm) run iters times back to back.
type allreduceCfg struct {
	ranks int
	elems int // f64 values per rank
	iters int // back-to-back allreduces per run
	// skewNS bounds the seeded per-rank arrival skew before each
	// allreduce (closed-loop load imbalance). 0 adds no events, which
	// reproduces the internal/bench scale schedule exactly.
	skewNS int64
}

// allreduceRun is one built allreduce instance.
type allreduceRun struct {
	cfg  allreduceCfg
	seed uint64
	c    *cluster.Cluster
	w    *core.World
	// skew[id*iters+k] is rank id's delay before allreduce k; want[k]
	// the host-computed sums of allreduce k.
	skew []sim.Duration
	want [][]float64
	// out[id*iters+k] is rank id's result buffer of allreduce k and
	// lat its virtual latency; errs the error it returned.
	out  []*machine.Buffer
	lat  []sim.Duration
	errs []error
}

func allreduceWorkload(cfg allreduceCfg) workload {
	return workload{
		name: "allreduce-fattree",
		build: func(seed uint64, o *observer) (instance, error) {
			return buildAllreduce(cfg, seed, o)
		},
	}
}

// allreduceValue draws one input element from a rank's stream for one
// allreduce: a small integer, so every reduction order sums exactly and
// the oracle is bit-exact.
func allreduceValue(g *rng) float64 { return float64(g.intn(1024)) }

func buildAllreduce(cfg allreduceCfg, seed uint64, o *observer) (*allreduceRun, error) {
	plat := perfmodel.Default()
	a := &allreduceRun{cfg: cfg, seed: seed}
	_ = o.timed("setup.cluster", func() error {
		a.c = cluster.NewWithTopo(plat, cfg.ranks, "fattree")
		a.c.SetMetrics(o.reg)
		a.c.SetCausal(o.rec)
		return nil
	})
	_ = o.timed("setup.world", func() error {
		wcfg := core.ConfigFromPlatform(plat)
		wcfg.Offload = false
		wcfg.EagerSlots = 8
		wcfg.EagerMax = 1024
		wcfg.ConnectMode = "lazy"
		wcfg.CollAllreduce = "ring"
		wcfg.Metrics = a.c.Metrics
		wcfg.Causal = a.c.Causal
		a.w = core.NewWorld(a.c.Eng, plat, wcfg, a.c.HostEnvs(cfg.ranks))
		return nil
	})
	_ = o.timed("setup.inputs", func() error {
		n := cfg.ranks * cfg.iters
		a.skew = make([]sim.Duration, n)
		if cfg.skewNS > 0 {
			g := newRNG(seed, 1)
			for i := range a.skew {
				a.skew[i] = sim.Duration(g.intn(int(cfg.skewNS)))
			}
		}
		a.want = make([][]float64, cfg.iters)
		for k := range a.want {
			a.want[k] = make([]float64, cfg.elems)
			for id := 0; id < cfg.ranks; id++ {
				g := newRNG(seed, 2, uint64(id), uint64(k))
				for i := range a.want[k] {
					a.want[k][i] += allreduceValue(g)
				}
			}
		}
		a.out = make([]*machine.Buffer, n)
		a.lat = make([]sim.Duration, n)
		a.errs = make([]error, n)
		return nil
	})
	return a, nil
}

func (a *allreduceRun) run(o *observer) error {
	return o.timed("run", func() error { return a.w.Run(a.body) })
}

// body is one rank: iters closed-loop allreduces, each timed on the
// virtual clock from call to return.
func (a *allreduceRun) body(r *core.Rank) error {
	p := r.Proc()
	id := r.ID()
	for k := 0; k < a.cfg.iters; k++ {
		i := id*a.cfg.iters + k
		if d := a.skew[i]; d > 0 {
			p.Sleep(d)
		}
		buf := r.Mem(a.cfg.elems * 8)
		g := newRNG(a.seed, 2, uint64(id), uint64(k))
		for e := 0; e < a.cfg.elems; e++ {
			binary.LittleEndian.PutUint64(buf.Data[e*8:], math.Float64bits(allreduceValue(g)))
		}
		a.out[i] = buf
		t0 := p.Now()
		err := r.Allreduce(p, core.Whole(buf), core.OpSumF64)
		a.lat[i] = p.Now() - t0
		if err != nil {
			a.errs[i] = err
			return err
		}
	}
	return nil
}

// check compares every rank's every result with the host oracle: an
// operation fails if it returned an error, never ran, or any element
// differs.
func (a *allreduceRun) check(o *observer) outcome {
	var out outcome
	_ = o.timed("verify", func() error {
		out = outcome{
			attempted:   len(a.out),
			fingerprint: a.c.Eng.Fingerprint(),
			simNS:       int64(a.c.Eng.Now()),
			events:      a.c.Eng.EventsRun(),
			opsUS:       make([]float64, 0, len(a.out)),
			layer:       map[string]float64{},
		}
		for i, buf := range a.out {
			id, k := i/a.cfg.iters, i%a.cfg.iters
			switch {
			case a.errs[i] != nil:
				out.fail("rank %d allreduce %d: %v", id, k, a.errs[i])
				continue
			case buf == nil:
				out.fail("rank %d allreduce %d never ran", id, k)
				continue
			}
			if e := mismatch(buf.Data, a.want[k]); e >= 0 {
				out.fail("rank %d allreduce %d element %d wrong", id, k, e)
				continue
			}
			out.opsUS = append(out.opsUS, a.lat[i].Micros())
		}
		if ft, ok := a.c.Fabric.Topo.(*topo.FatTree); ok {
			out.layer["topo.interior_bytes"] = float64(ft.InteriorBytes())
		}
		return nil
	})
	return out
}

// mismatch returns the first element of the little-endian f64 vector b
// that differs from want, or -1.
func mismatch(b []byte, want []float64) int {
	if len(b) != 8*len(want) {
		return 0
	}
	for i, w := range want {
		if math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:])) != w {
			return i
		}
	}
	return -1
}

// historyCheck is the BENCH_9 cross-check: 1000 ranks, 1000 values,
// seed 7, ring over the fat tree, no skew. The schedule must match the
// sim time and fingerprint internal/bench recorded then.
var historyCheck = struct {
	cfg         allreduceCfg
	seed        uint64
	simNS       int64
	fingerprint uint64
}{allreduceCfg{ranks: 1000, elems: 1000, iters: 1}, 7, 9094582, 0x8fd8507ff5a8a67c}
