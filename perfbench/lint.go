package main

import (
	"fmt"
	"go/ast"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
)

// defaultLintUnits sizes lint-synth's generated package so that the
// rules, not parsing and type-checking, take most of the time.
const defaultLintUnits = 4000

// lintWorkload is lint-synth: every simlint rule over a generated,
// self-contained package whose findings are known by construction.
// dir receives the generated source (one subdirectory per seed).
func lintWorkload(dir string, units int) workload {
	var src *lintSource // written by prepare, read by build
	return workload{
		name: "lint-synth",
		prepare: func(seed uint64) error {
			var err error
			src, err = writeLintSynth(filepath.Join(dir, fmt.Sprint(seed)), seed, units)
			return err
		},
		build: func(seed uint64, o *observer) (instance, error) {
			return buildLint(filepath.Join(dir, fmt.Sprint(seed)), src, o)
		},
	}
}

// lintRun is one loaded lint-synth package.
type lintRun struct {
	src      *lintSource
	loader   *analysis.Loader
	pkg      *analysis.Package
	stats    *analysis.RunStats
	findings []analysis.Finding
}

// buildLint is the set-up: NewLoader plus LoadDir (parse and
// type-check). The package sits outside the module, which every rule
// treats as in scope.
func buildLint(dir string, src *lintSource, o *observer) (*lintRun, error) {
	a := &lintRun{src: src}
	err := o.timed("lint.load", func() error {
		root, err := analysis.FindModuleRoot(".")
		if err != nil {
			return err
		}
		if a.loader, err = analysis.NewLoader(root); err != nil {
			return err
		}
		a.pkg, err = a.loader.LoadDir(dir, "lintsynth")
		return err
	})
	return a, err
}

// run builds the pass and runs every rule.
func (a *lintRun) run(o *observer) error {
	err := o.timed("run", func() error {
		pass := analysis.NewPass(a.loader.Fset, a.pkg.Path, a.loader.ModulePath, a.pkg.Files, a.pkg.Types, a.pkg.Info)
		a.stats = &analysis.RunStats{RuleTime: map[string]time.Duration{}}
		a.findings = pass.RunTimed(analysis.All(), a.stats)
		return nil
	})
	for _, name := range sortedKeys(a.stats.RuleTime) {
		o.spans = append(o.spans, span{"lint.rule." + name, a.stats.RuleTime[name]})
	}
	return err
}

// check compares the findings with the expected set, unit by unit: a
// unit fails when any finding inside it is missing or unexpected, and
// a finding outside every unit fails the header.
func (a *lintRun) check(o *observer) outcome {
	var out outcome
	_ = o.timed("verify", func() error {
		out = checkFindings(a.src, a.findings)
		out.layer = map[string]float64{"lint.findings": float64(len(a.findings))}
		funcs := 0
		for _, f := range a.pkg.Files {
			for _, d := range f.Decls {
				if _, ok := d.(*ast.FuncDecl); ok {
					funcs++
				}
			}
		}
		out.layer["lint.funcs"] = float64(funcs)
		for name, d := range a.stats.RuleTime {
			out.layer["lint.rule_ms."+name] = float64(d.Nanoseconds()) / 1e6
		}
		load, rules := o.spanTotal("lint.load"), o.spanTotal("run")
		if load+rules > 0 {
			out.layer["lint.typecheck_share"] = load.Seconds() / (load + rules).Seconds()
		}
		return nil
	})
	return out
}

// checkFindings is the lint gate. Findings are keyed by (line, rule);
// the fingerprint hashes every finding in order.
func checkFindings(src *lintSource, findings []analysis.Finding) outcome {
	out := outcome{attempted: len(src.units) + 1}
	got := map[int][]string{}
	h := fnv.New64a()
	for _, f := range findings {
		got[f.Pos.Line] = append(got[f.Pos.Line], f.Rule)
		fmt.Fprintf(h, "%d:%s:%s\n", f.Pos.Line, f.Rule, f.Message)
	}
	out.fingerprint = h.Sum64()
	claimed := map[int]bool{}
	for _, u := range src.units {
		var want, have []string
		for _, e := range u.expect {
			want = append(want, fmt.Sprintf("%d:%s", e.line, e.rule))
		}
		for line := u.first; line <= u.last; line++ {
			claimed[line] = true
			for _, rule := range got[line] {
				have = append(have, fmt.Sprintf("%d:%s", line, rule))
			}
		}
		sort.Strings(want)
		sort.Strings(have)
		if strings.Join(want, ",") != strings.Join(have, ",") {
			out.fail("unit %s: findings [%s], want [%s]", u.name, strings.Join(have, ","), strings.Join(want, ","))
		}
	}
	var stray []string
	for _, line := range sortedKeys(got) {
		if !claimed[line] {
			stray = append(stray, fmt.Sprintf("%d:%s", line, strings.Join(got[line], "+")))
		}
	}
	if len(stray) > 0 {
		out.fail("findings outside every unit: %s", strings.Join(stray, ","))
	}
	return out
}

// writeLintSynth generates the package for seed into dir.
func writeLintSynth(dir string, seed uint64, units int) (*lintSource, error) {
	src := generateLintSynth(seed, units)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return src, os.WriteFile(filepath.Join(dir, "lintsynth.go"), []byte(src.text), 0o644)
}
