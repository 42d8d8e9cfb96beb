package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// Self-tests at short sizes: every correctness gate must fire on a
// corrupted input, seeds must pin the inputs, the profile folder must
// split a fixed profile exactly, and BENCHMARK.json must describe what
// the command prints.

var (
	smallAllreduce = allreduceCfg{ranks: 8, elems: 16, iters: 2, skewNS: 1000}
	smallP2P       = p2pCfg{ranks: 4, rounds: 6, pool: 2, bigPool: 1}
)

const smallLintUnits = 40

func mustRun(t *testing.T, inst instance) outcome {
	t.Helper()
	o := &observer{}
	if err := inst.run(o); err != nil {
		t.Fatalf("run: %v", err)
	}
	return inst.check(o)
}

func TestAllreduceOracleGate(t *testing.T) {
	a, err := buildAllreduce(smallAllreduce, 1, &observer{})
	if err != nil {
		t.Fatal(err)
	}
	out := mustRun(t, a)
	if out.failed != 0 || out.attempted != smallAllreduce.ranks*smallAllreduce.iters {
		t.Fatalf("clean run: %d/%d failed: %v", out.failed, out.attempted, out.problems)
	}
	if len(out.opsUS) != out.attempted {
		t.Errorf("timed %d operations, want %d", len(out.opsUS), out.attempted)
	}
	a.want[1][3]++ // the oracle now disagrees with every rank's second result
	if out := a.check(&observer{}); out.failed != smallAllreduce.ranks {
		t.Errorf("corrupted oracle: %d failed, want %d", out.failed, smallAllreduce.ranks)
	}
}

func TestP2PPayloadGate(t *testing.T) {
	clean, err := buildP2P(smallP2P, 1, &observer{})
	if err != nil {
		t.Fatal(err)
	}
	out := mustRun(t, clean)
	if out.failed != 0 || out.attempted != smallP2P.rounds*len(p2pSizes) {
		t.Fatalf("clean run: %d/%d failed: %v", out.failed, out.attempted, out.problems)
	}
	for _, flip := range []int{0, 37} { // an 8-byte eager and a larger message
		bad, err := buildP2P(smallP2P, 1, &observer{})
		if err != nil {
			t.Fatal(err)
		}
		bad.flip = flip
		if out := mustRun(t, bad); out.failed != 1 {
			t.Errorf("one corrupted byte in message %d: %d failed, want 1 (%v)", flip, out.failed, out.problems)
		}
	}
}

func TestLintFindingGate(t *testing.T) {
	dir := t.TempDir()
	src, err := writeLintSynth(dir, 1, smallLintUnits)
	if err != nil {
		t.Fatal(err)
	}
	a, err := buildLint(dir, src, &observer{})
	if err != nil {
		t.Fatal(err)
	}
	out := mustRun(t, a)
	if out.failed != 0 || out.attempted != smallLintUnits+1 {
		t.Fatalf("clean run: %d/%d failed: %v", out.failed, out.attempted, out.problems)
	}
	if out.layer["lint.findings"] == 0 {
		t.Fatal("generated package drew no findings")
	}
	for i := range src.units {
		u := &src.units[i]
		if len(u.expect) == 0 {
			continue
		}
		saved := u.expect
		u.expect = nil // one expected finding is now missing from the set
		if out := checkFindings(src, a.findings); out.failed != 1 {
			t.Errorf("dropped expectation of %s: %d failed, want 1", u.name, out.failed)
		}
		u.expect = []lintExpect{{saved[0].line + 1, saved[0].rule}}
		if out := checkFindings(src, a.findings); out.failed != 1 {
			t.Errorf("moved expectation of %s: %d failed, want 1", u.name, out.failed)
		}
		u.expect = saved
		return
	}
	t.Fatal("no unit carries a defect")
}

// TestSeedsPinInputs: the same seed gives the same fingerprint, another
// seed a different one, on every workload.
func TestSeedsPinInputs(t *testing.T) {
	dir := t.TempDir()
	wls := []workload{allreduceWorkload(smallAllreduce), p2pWorkload(smallP2P), lintWorkload(dir, smallLintUnits)}
	for _, wl := range wls {
		fp := func(seed uint64) uint64 {
			if wl.prepare != nil {
				if err := wl.prepare(seed); err != nil {
					t.Fatal(err)
				}
			}
			s, err := runOnce(wl, seed, &observer{})
			if err != nil || s.out.failed != 0 {
				t.Fatalf("%s seed %d: %v %v", wl.name, seed, err, s.out.problems)
			}
			return s.out.fingerprint
		}
		a, b, c := fp(1), fp(1), fp(2)
		if a != b {
			t.Errorf("%s: same seed, fingerprints %#x and %#x", wl.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 share fingerprint %#x", wl.name, a)
		}
	}
}

// TestHistory64 is the cheap half of the BENCH_9 cross-check: its
// 64-rank row (1000 values, seed 7, ring, fat tree) must reproduce.
// -history runs the 1000-rank row.
func TestHistory64(t *testing.T) {
	cfg := allreduceCfg{ranks: 64, elems: 1000, iters: 1}
	s, err := runOnce(allreduceWorkload(cfg), 7, &observer{})
	if err != nil || s.out.failed != 0 {
		t.Fatalf("%v %v", err, s.out.problems)
	}
	if s.out.simNS != 695105 || s.out.fingerprint != 0x617f51e5029a3a53 {
		t.Errorf("sim time %d ns, fingerprint %#x; BENCH_9 recorded 695105 ns, 0x617f51e5029a3a53", s.out.simNS, s.out.fingerprint)
	}
}

// fakeInstance drives the harness gates with chosen fingerprints; its
// work is a sleep.
type fakeInstance struct {
	fp, tracedFP uint64
	work         time.Duration
}

func (f *fakeInstance) run(o *observer) error {
	return o.timed("run", func() error { time.Sleep(f.work); return nil })
}

func (f *fakeInstance) check(o *observer) outcome {
	fp := f.fp
	if o.reg != nil {
		fp = f.tracedFP
	}
	return outcome{attempted: 1, fingerprint: fp}
}

func TestFingerprintGates(t *testing.T) {
	var n uint64
	drifting := workload{name: "drift", build: func(uint64, *observer) (instance, error) {
		time.Sleep(10 * time.Millisecond) // the set-up phase then takes 100 builds, not millions
		n++
		return &fakeInstance{fp: n, tracedFP: n, work: time.Millisecond}, nil
	}}
	res, err := timed(drifting, config{seconds: 0.05}, inProcess(drifting, 1), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() || len(res.gateFailures) == 0 {
		t.Errorf("instances with differing fingerprints passed the same-seed gate")
	}
	// One profiled instance covers the profile; the traced one need not.
	perturbing := workload{name: "perturb", build: func(_ uint64, o *observer) (instance, error) {
		if o.reg != nil {
			return &fakeInstance{fp: 1, tracedFP: 2}, nil
		}
		return &fakeInstance{fp: 1, tracedFP: 2, work: profileWork}, nil
	}}
	res, err = traced(perturbing, config{}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() || len(res.gateFailures) != 1 {
		t.Errorf("traced fingerprint differing from untraced passed the gate: %v", res.gateFailures)
	}
}

// pbuf is a minimal protobuf encoder for the fixed test profile.
type pbuf []byte

func (p *pbuf) varint(field int, v uint64) {
	*p = binary.AppendUvarint(binary.AppendUvarint(*p, uint64(field)<<3), v)
}

func (p *pbuf) bytes(field int, b []byte) {
	*p = binary.AppendUvarint(binary.AppendUvarint(*p, uint64(field)<<3|2), uint64(len(b)))
	*p = append(*p, b...)
}

// fixedProfile encodes samples whose stacks are lists of locations,
// each location a list of function names (innermost inline first).
func fixedProfile(samples []struct {
	stack [][]string
	count int64
}) []byte {
	var prof pbuf
	strs := map[string]int{"": 0}
	order := []string{""}
	fn := func(name string) uint64 {
		if _, ok := strs[name]; !ok {
			strs[name] = len(order)
			order = append(order, name)
		}
		return uint64(strs[name])
	}
	var locs, funcs pbuf
	nextLoc := uint64(0)
	for _, s := range samples {
		var ids pbuf
		for _, loc := range s.stack {
			nextLoc++
			var l pbuf
			l.varint(1, nextLoc)
			for _, name := range loc {
				id := fn(name)
				var line pbuf
				line.varint(1, id)
				l.bytes(4, line)
			}
			locs.bytes(4, l)
			ids = binary.AppendUvarint(ids, nextLoc)
		}
		var sm, vals pbuf
		sm.bytes(1, ids) // packed location ids
		vals = binary.AppendUvarint(vals, uint64(s.count))
		vals = binary.AppendUvarint(vals, uint64(s.count)*1e7)
		sm.bytes(2, vals)
		prof.bytes(2, sm)
	}
	for id := 1; id < len(order); id++ {
		var f pbuf
		f.varint(1, uint64(id))
		f.varint(2, uint64(id))
		funcs.bytes(5, f)
	}
	prof = append(prof, locs...)
	prof = append(prof, funcs...)
	for _, s := range order {
		prof.bytes(6, []byte(s))
	}
	return prof
}

func TestFoldFixedProfile(t *testing.T) {
	type smp = struct {
		stack [][]string
		count int64
	}
	samples := []smp{
		{[][]string{{"runtime.memmove"}, {"repro/internal/core.(*Rank).progress"}, {"main.(*p2pRun).round"}}, 36},
		{[][]string{{"runtime.memmove"}, {"main.(*p2pRun).round"}, {"repro/internal/core.(*World).Launch.func1"}}, 4},
		{[][]string{{"repro/internal/core.(*Rank).progress"}, {"repro/internal/sim.(*Engine).Run"}}, 20},
		{[][]string{{"runtime.mallocgc"}, {"repro/internal/ib.(*HCA).post"}}, 10},
		{[][]string{{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess2_fast64"}, {"repro/internal/ib.(*HCA).lookupMR"}}, 8},
		{[][]string{{"runtime.chanrecv"}, {"repro/internal/sim.(*Proc).park"}}, 7},
		{[][]string{{"repro/internal/topo.(*FatTree).Deliver", "repro/internal/ib.(*QP).send"}}, 6},
		{[][]string{{"memeqbody"}, {"main.(*p2pRun).waitRecvs"}, {"repro/internal/core.(*World).Launch.func1"}}, 4},
		{[][]string{{"go/types.(*Checker).expr"}, {"repro/internal/analysis.(*Loader).LoadDir"}}, 3},
		{[][]string{{"sort.Strings"}, {"repro/internal/bench.run"}}, 1},
		{[][]string{{"compress/flate.(*compressor).deflate"}}, 1},
	}
	want := map[string]float64{
		"runtime.memmove_share": 36, "core.share": 20, "runtime.mem_share": 10,
		"runtime.maps_share": 8, "runtime.sched_share": 7, "topo.share": 6,
		"harness.share": 8, "analysis.share": 3, "other.share": 2,
	}
	raw := fixedProfile(samples)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{raw, gz.Bytes()} {
		counts := map[string]int64{}
		if err := foldProfile(data, counts); err != nil {
			t.Fatal(err)
		}
		shares, total, err := sharesOf(counts)
		if err != nil {
			t.Fatal(err)
		}
		if total != 100 {
			t.Fatalf("folded %d samples, want 100", total)
		}
		sum := 0.0
		for _, k := range sortedKeys(shares) {
			sum += shares[k]
			if w := want[k] / 100; math.Abs(shares[k]-w) > 1e-12 {
				t.Errorf("%s = %v, want %v", k, shares[k], w)
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("shares sum to %v", sum)
		}
	}
}

// lastJSON parses the last stdout line as the result object.
func lastJSON(t *testing.T, out string) (res struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return res
}

// inProcess measures wl's instances in the test process, where the
// command would start a process for each.
func inProcess(wl workload, seed uint64) measureFunc {
	return func(setupOnly bool) (instanceReport, error) {
		if wl.prepare != nil {
			if err := wl.prepare(seed); err != nil {
				return instanceReport{}, err
			}
		}
		return measureInstance(wl, seed, setupOnly)
	}
}

// coveringProfile is an instance whose untraced work first sleeps for
// profileWork, so that one instance covers the traced run's profile.
type coveringProfile struct{ instance }

func (c coveringProfile) run(o *observer) error {
	if o.reg == nil {
		time.Sleep(profileWork)
	}
	return c.instance.run(o)
}

func TestCommandPrintsEveryMetric(t *testing.T) {
	wl := lintWorkload(t.TempDir(), 30)
	build := wl.build
	wl.build = func(seed uint64, o *observer) (instance, error) {
		inst, err := build(seed, o)
		return coveringProfile{inst}, err
	}
	for trace, cat := range map[int][]layerMetric{0: endToEnd, 1: layerCatalogue()} {
		var out, errOut bytes.Buffer
		if code := execute(wl, config{seed: 3, trace: trace}, inProcess(wl, 3), &out, &errOut); code != 0 {
			t.Fatalf("trace %d: exit %d: %s%s", trace, code, out.String(), errOut.String())
		}
		res := lastJSON(t, out.String())
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("trace %d: %+v", trace, res)
		}
		if len(res.Metrics) != len(cat) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(res.Metrics), len(cat))
		}
		for _, m := range cat {
			var v struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			}
			if err := json.Unmarshal(res.Metrics[m.name], &v); err != nil || v.Unit != m.unit {
				t.Errorf("trace %d: metric %s = %s, want unit %s", trace, m.name, res.Metrics[m.name], m.unit)
			}
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}

// TestInstanceReport: an instance process's report reads back as the
// timed run expects it.
func TestInstanceReport(t *testing.T) {
	wl := lintWorkload(t.TempDir(), smallLintUnits)
	for _, mode := range []string{"full", "setup"} {
		var out, errOut bytes.Buffer
		if code := runInstance(wl, 1, mode, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d: %s", mode, code, errOut.String())
		}
		var r instanceReport
		if err := json.Unmarshal(out.Bytes(), &r); err != nil {
			t.Fatalf("%s: %v: %s", mode, err, out.String())
		}
		if r.SetupS <= 0 || (mode == "full") != (r.WallS > 0 && r.PeakRSSMB > 0 && r.Attempted == smallLintUnits+1 && r.Fingerprint != 0) {
			t.Errorf("%s: report %+v", mode, r)
		}
	}
	var out, errOut bytes.Buffer
	if code := runInstance(wl, 1, "half", &out, &errOut); code != 2 || out.Len() != 0 {
		t.Errorf("unknown mode: exit %d, printed %q", code, out.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and baseline.json in step
// with the command.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []map[string]any `json:"end_to_end"`
		PerLayer []map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		s := recordedSeeds[w.Name]
		if s.Default == 0 || s.HeldOut == 0 || s.Default == s.HeldOut {
			t.Errorf("baseline.json: workload %s needs distinct default and held-out seeds, got %+v", w.Name, s)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloadNames())
	}
	check := func(kind string, got []map[string]any, want []layerMetric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, command prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i]["name"] != m.name || got[i]["unit"] != m.unit || got[i]["better"] != m.better {
				t.Errorf("%s[%d] = %v, command prints %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, layerCatalogue())
}
