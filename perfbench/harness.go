package main

import (
	"fmt"
	"time"

	"repro/internal/causal"
	"repro/internal/metrics"
)

// workload is one named benchmark input. build makes a fresh instance
// for a seed; everything it does is the run's set-up (setup_s).
type workload struct {
	name string
	// prepare, when set, makes seed inputs that are not part of the
	// set-up (lint-synth writes its generated package); it runs once
	// per invocation, untimed.
	prepare func(seed uint64) error
	build   func(seed uint64, o *observer) (instance, error)
}

// instance is one built workload: run is the timed work (wall_s) and
// check verifies its outputs afterwards.
type instance interface {
	run(o *observer) error
	check(o *observer) outcome
}

// outcome is what one instance produced, after verification.
type outcome struct {
	attempted   int
	failed      int
	fingerprint uint64
	// simNS is the virtual completion time and events the engine's
	// dispatch count (both 0 for lint-synth).
	simNS  int64
	events int64
	// opsUS holds the virtual latency of every timed MPI operation.
	opsUS []float64
	// layer carries workload-specific per-layer readouts (topology
	// bytes, lint rule times, ...), keyed by metric name.
	layer map[string]float64
	// problems describes the first failures, for the log.
	problems []string
}

// fail records one failed operation with a description.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// runFailed records an error from the run itself. It counts as a failed
// operation only when no check failed: the checks then found nothing
// wrong, yet the run did not end cleanly (a deadlock after the last
// operation, say).
func (o *outcome) runFailed(err error) {
	if err != nil && o.failed == 0 {
		o.fail("run: %v", err)
	}
}

// observer carries the instrumentation of one instance. Untraced runs
// use a zero observer: nil registry and recorder are valid no-ops in
// every layer, and spans cost one clock read each.
type observer struct {
	reg   *metrics.Registry
	rec   *causal.Recorder
	spans []span
}

// span is one host-time interval around a benchmark call.
type span struct {
	name string
	dur  time.Duration
}

// timed runs f inside a named host-time span.
func (o *observer) timed(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	o.spans = append(o.spans, span{name, time.Since(t0)})
	return err
}

// spanTotal sums the spans with the given name.
func (o *observer) spanTotal(name string) time.Duration {
	var d time.Duration
	for _, s := range o.spans {
		if s.name == name {
			d += s.dur
		}
	}
	return d
}
