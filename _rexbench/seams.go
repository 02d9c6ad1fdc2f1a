package main

import (
	"bytes"
	"sync"
	"time"

	"rexchange/internal/core"
	"rexchange/internal/ctl"
	"rexchange/internal/plan"
)

// layers accumulates the traced run's per-layer measurements. The clock,
// load-source and observer wrappers are called only from the controller's
// goroutine; the recorder is called from solver restart goroutines and
// locks.
type layers struct {
	generate, trace, desNew time.Duration

	sleep, next, observer           time.Duration
	sleepCalls, nextCalls, obsCalls int

	rec recorder
}

// timedClock wraps a ctl.Clock and times Sleep, where the simulator runs
// its events.
type timedClock struct {
	inner ctl.Clock
	l     *layers
}

func (c timedClock) Now() float64 { return c.inner.Now() }

func (c timedClock) Sleep(d float64) {
	start := time.Now()
	c.inner.Sleep(d)
	c.l.sleep += time.Since(start)
	c.l.sleepCalls++
}

// timedSource wraps a ctl.LoadSource and times Next.
type timedSource struct {
	inner ctl.LoadSource
	l     *layers
}

func (s timedSource) Next(t0, t1 float64) ([]float64, error) {
	start := time.Now()
	loads, err := s.inner.Next(t0, t1)
	s.l.next += time.Since(start)
	s.l.nextCalls++
	return loads, err
}

// timedObserver wraps a ctl.MoveObserver, timing and counting its calls.
type timedObserver struct {
	inner ctl.MoveObserver
	l     *layers
}

func (o timedObserver) MoveStarted(mv plan.Move, ref ctl.MoveRef, at, eta float64) {
	start := time.Now()
	o.inner.MoveStarted(mv, ref, at, eta)
	o.l.observer += time.Since(start)
	o.l.obsCalls++
}

func (o timedObserver) MoveFinished(mv plan.Move, ref ctl.MoveRef, at float64, committed bool) {
	start := time.Now()
	o.inner.MoveFinished(mv, ref, at, committed)
	o.l.observer += time.Since(start)
	o.l.obsCalls++
}

// recorder implements core.Recorder, keeping each LNS run's wall time in
// completion order plus outcome totals.
type recorder struct {
	mu             sync.Mutex
	runs           []float64
	iterations     int
	accepted       int
	repairFailures int
	newBest        int
}

var _ core.Recorder = (*recorder)(nil)

func (r *recorder) RecordIterations(destroyOp, repairOp, outcome string, n int) {
	if outcome != core.IterNewBest {
		return
	}
	r.mu.Lock()
	r.newBest += n
	r.mu.Unlock()
}

func (r *recorder) RecordRun(iterations, accepted, repairFailures int, seconds float64) {
	r.mu.Lock()
	r.runs = append(r.runs, seconds)
	r.iterations += iterations
	r.accepted += accepted
	r.repairFailures += repairFailures
	r.mu.Unlock()
}

// lnsSeconds is the summed LNS time of every run.
func (r *recorder) lnsSeconds() float64 {
	t := 0.0
	for _, s := range r.runs {
		t += s
	}
	return t
}

// critical groups runs into solve calls of `restarts` consecutive runs
// (solve calls never overlap, so a call's runs are adjacent) and returns
// the summed slowest-run time — the part of the calls' wall time the
// search loop blocks — and the mean over calls of slowest/mean run time.
func (r *recorder) critical(restarts int) (slowest, skew float64) {
	calls := 0
	for i := 0; i+restarts <= len(r.runs); i += restarts {
		slow, sum := 0.0, 0.0
		for _, s := range r.runs[i : i+restarts] {
			sum += s
			if s > slow {
				slow = s
			}
		}
		slowest += slow
		if sum > 0 {
			skew += slow / (sum / float64(restarts))
			calls++
		}
	}
	if calls > 0 {
		skew /= float64(calls)
	}
	return slowest, skew
}

// countingWriter is the journal's sink: it keeps nothing, counting bytes
// and records and timing the writes.
type countingWriter struct {
	bytes, records int
	spent          time.Duration
}

func (w *countingWriter) Write(p []byte) (int, error) {
	start := time.Now()
	w.bytes += len(p)
	w.records += bytes.Count(p, []byte{'\n'})
	w.spent += time.Since(start)
	return len(p), nil
}

// perLayer lists the traced run's metrics and units. Every traced run
// reports all of them; a layer a workload does not run reads 0.
var perLayer = []metricSpec{
	{"workload.generate_s", "s"},
	{"workload.trace_s", "s"},
	{"core.solve_s", "s"},
	{"core.lns_s", "s"},
	{"core.restart_skew", "ratio"},
	{"core.iters_per_s", "1/s"},
	{"core.accept_ratio", "ratio"},
	{"core.new_best_ratio", "ratio"},
	{"core.repair_fail_ratio", "ratio"},
	{"core.plan_fallbacks", "count"},
	{"core.imbalance_after", "ratio"},
	{"plan.build_s", "s"},
	{"plan.moves", "count"},
	{"plan.staged_moves", "count"},
	{"plan.bytes_moved", "disk_units"},
	{"ctl.run_s", "s"},
	{"ctl.self_s", "s"},
	{"ctl.solves", "count"},
	{"ctl.moves_committed", "count"},
	{"ctl.commit_ratio", "ratio"},
	{"ctl.final_imbalance", "ratio"},
	{"des.new_s", "s"},
	{"des.sleep_s", "s"},
	{"des.sleep_calls", "count"},
	{"des.next_s", "s"},
	{"des.observer_s", "s"},
	{"des.observer_calls", "count"},
	{"des.events", "count"},
	{"des.events_per_s", "1/s"},
	{"des.arrivals", "count"},
	{"des.offered", "count"},
	{"des.arrival_ratio", "ratio"},
	{"des.backlog_end", "count"},
	{"des.during_queries", "count"},
	{"des.p50_during_s", "s"},
	{"des.p99_during_s", "s"},
	{"des.p999_during_s", "s"},
	{"obs.journal_records", "count"},
	{"obs.journal_bytes", "B"},
	{"obs.write_s", "s"},
	{"obs.exposition_s", "s"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"go.peak_rss_mb", "MB"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.unattributed_s", "s"},
}

// layer sets a per-layer metric, taking its unit from perLayer.
func (o *outcome) layer(name string, value float64) {
	for _, m := range perLayer {
		if m.name == name {
			o.set(name, value, m.unit)
			return
		}
	}
	panic("rexbench: unknown per-layer metric " + name)
}

// fillLayers sets every per-layer metric the workload did not reach to 0.
func (o *outcome) fillLayers() {
	for _, m := range perLayer {
		if _, ok := o.metrics[m.name]; !ok {
			o.set(m.name, 0, m.unit)
		}
	}
}

// setCoreMetrics sets the solver metrics from the recorder's totals.
func (o *outcome) setCoreMetrics(rec *recorder, skew float64) {
	lns := rec.lnsSeconds()
	o.layer("core.lns_s", lns)
	o.layer("core.restart_skew", skew)
	if lns > 0 {
		o.layer("core.iters_per_s", float64(rec.iterations)/lns)
	}
	it := int64(rec.iterations)
	o.layer("core.accept_ratio", frac(int64(rec.accepted), it))
	o.layer("core.new_best_ratio", frac(int64(rec.newBest), it))
	o.layer("core.repair_fail_ratio", frac(int64(rec.repairFailures), it))
}

// setGoMetrics sets the runtime metrics of the traced section and the
// tracing overhead: traced wall time over the untraced median, minus one.
func (o *outcome) setGoMetrics(m memDelta, tracedWall, untracedWall float64) {
	o.layer("go.alloc_mb", m.allocMB)
	o.layer("go.gc_cycles", float64(m.gcCycles))
	o.layer("go.gc_pause_s", m.gcPauseS)
	o.layer("go.peak_rss_mb", peakRSSMB())
	o.layer("bench.trace_overhead_frac", tracedWall/untracedWall-1)
}
