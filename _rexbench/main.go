// Command rexbench is the repository's benchmark: it runs one named
// workload through the public APIs of workload, cluster, core, plan, ctl,
// des and obs, checks every output, and prints its metrics.
//
// Usage (from the repository root):
//
//	bash _rexbench/run.sh --workload exchange-solve --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run is untraced and its last stdout line carries the
// end-to-end metrics; with --trace 1 an untraced reference pass is followed
// by one traced pass whose seam wrappers give the per-layer metrics. Earlier
// stdout lines are a human-readable table. README.md explains the
// workloads and which layer metric moves which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"rexchange/internal/rng"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload returns: its failure accounting, the
// end-to-end metrics (untraced) or per-layer metrics (traced), and a
// free-form table of further figures for humans.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metric
	notes     []string
}

func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, value float64, unit string) {
	o.metrics[name] = metric{value, unit}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func newOutcome() *outcome {
	return &outcome{correct: true, metrics: map[string]metric{}}
}

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the untraced run's metrics, as BENCHMARK.json does.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"alloc_mb", "MB"},
}

// complete checks that the run set exactly the metrics BENCHMARK.json
// lists for its kind of run.
func (o *outcome) complete(traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, m := range want {
		if got, ok := o.metrics[m.name]; !ok || got.Unit != m.unit {
			return fmt.Errorf("metric %s (%s) missing or in the wrong unit", m.name, m.unit)
		}
	}
	if len(o.metrics) != len(want) {
		return fmt.Errorf("%d metrics set, want %d", len(o.metrics), len(want))
	}
	return nil
}

// setEndToEnd sets the untraced run's metrics from its set-up times and
// units, and notes the median unit time under the given name.
func (o *outcome) setEndToEnd(setups []float64, t *tally, unitName string) {
	o.set("setup_s", median(setups), "s")
	o.set("work_per_s", t.workPerS(), "1/s")
	o.set("alloc_mb", t.mean(func(s sample) float64 { return s.allocMB }), "MB")
	wall, units := t.p50(func(s sample) float64 { return s.wall })
	cpu, _ := t.p50(func(s sample) float64 { return s.cpuS })
	o.note("%s %.6f s  cpu_s_p50 %.6f s (median of %d units)", unitName, wall, cpu, units)
	o.note("setup_s %.6f s (median of %d)", median(setups), len(setups))
	o.note("peak_rss_mb %.1f MB", peakRSSMB())
}

// workloads maps each name to its runner. seconds bounds the measured
// loop; traced selects the per-layer run.
var workloads = map[string]func(seed int64, seconds float64, traced bool) (*outcome, error){
	"exchange-solve": runExchangeSolve,
	"rebalance-campaign": func(seed int64, s float64, t bool) (*outcome, error) {
		return runCampaign(rebalanceCampaign, seed, s, t)
	},
	"serve-control": func(seed int64, s float64, t bool) (*outcome, error) {
		return runCampaign(serveControl, seed, s, t)
	},
}

func main() {
	name := flag.String("workload", "", "workload: exchange-solve, rebalance-campaign or serve-control")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for the untraced end-to-end run")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "rexbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// The benchmark host has two cores; pinning GOMAXPROCS keeps the two
	// solver restarts' concurrency the same on larger machines.
	runtime.GOMAXPROCS(2)

	out, err := run(*seed, *seconds, *trace == 1)
	if err == nil {
		err = out.complete(*trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rexbench:", err)
		os.Exit(1)
	}
	if !out.correct {
		for _, p := range out.problems {
			fmt.Fprintln(os.Stderr, "rexbench: check failed:", p)
		}
	}
	printTable(*name, *seed, out)
	line, err := json.Marshal(result{out.correct, out.attempted, out.failed, out.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rexbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printTable writes the human-readable lines that precede the JSON line.
func printTable(name string, seed int64, out *outcome) {
	fmt.Printf("workload %s seed %d correct %v attempted %d failed %d fail_frac %.6f\n",
		name, seed, out.correct, out.attempted, out.failed, frac(out.failed, out.attempted))
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %16.6f %s\n", n, out.metrics[n].Value, out.metrics[n].Unit)
	}
	for _, n := range out.notes {
		fmt.Println("  " + n)
	}
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// inputSeed is the seed of input j of a run: an untraced run derives
// several inputs from its seed, so that differences between instances
// average out; a traced run uses input 0, the seed's own.
func inputSeed(seed int64, j int) int64 { return rng.WorkerSeed(seed, j) }

// sample is one unit's measurements.
type sample struct{ wall, allocMB, cpuS float64 }

// tally collects a run's samples by input, with each input's work per
// unit and its output digest, which every repeat must reproduce.
type tally struct {
	samples [][]sample
	work    []float64
	digest  []string
}

func newTally(n int) *tally {
	return &tally{samples: make([][]sample, n), work: make([]float64, n), digest: make([]string, n)}
}

func (t *tally) add(out *outcome, j int, s sample, work float64, digest string) {
	if len(t.samples[j]) == 0 {
		t.work[j], t.digest[j] = work, digest
	} else if digest != t.digest[j] {
		out.fail("repeat %d of input %d differs from its first run", len(t.samples[j]), j)
	}
	t.samples[j] = append(t.samples[j], s)
}

// med is the median of field f over input j's samples.
func (t *tally) med(j int, f func(sample) float64) float64 {
	xs := make([]float64, len(t.samples[j]))
	for i, s := range t.samples[j] {
		xs[i] = f(s)
	}
	return median(xs)
}

// workPerS is one cycle's work over its wall time, each input timed at its
// median.
func (t *tally) workPerS() float64 {
	work, wall := 0.0, 0.0
	for j := range t.samples {
		work += t.work[j]
		wall += t.med(j, func(s sample) float64 { return s.wall })
	}
	return work / wall
}

// mean is the mean over inputs of each input's median of field f.
func (t *tally) mean(f func(sample) float64) float64 {
	sum := 0.0
	for j := range t.samples {
		sum += t.med(j, f)
	}
	return sum / float64(len(t.samples))
}

// p50 is the median of field f over every sample of the run.
func (t *tally) p50(f func(sample) float64) (float64, int) {
	var xs []float64
	for _, ss := range t.samples {
		for _, s := range ss {
			xs = append(xs, f(s))
		}
	}
	return median(xs), len(xs)
}

// cycle runs unit(i, i%n) round-robin over n inputs: one full cycle, then
// more units while the next, at the mean unit time so far, is expected to
// end before deadline.
func cycle(deadline time.Time, n int, unit func(i, j int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		if i >= n {
			mean := time.Since(start) / time.Duration(i)
			if time.Now().Add(mean).After(deadline) {
				return nil
			}
		}
		if err := unit(i, i%n); err != nil {
			return err
		}
	}
}

// deadline splits a run: untraced runs measure for all of seconds;
// traced runs give the untraced reference pass half and then run one
// traced unit.
func deadline(seconds float64, traced bool) time.Time {
	if traced {
		seconds /= 2
	}
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// memDelta measures one section's allocation, GC activity and CPU time.
type memDelta struct {
	allocMB   float64
	gcCycles  uint32
	gcPauseS  float64
	cpuS      float64
	beforeMem runtime.MemStats
	beforeCPU float64
}

func (m *memDelta) begin() {
	runtime.ReadMemStats(&m.beforeMem)
	m.beforeCPU = cpuSeconds()
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func (m *memDelta) end() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.allocMB = float64(after.TotalAlloc-m.beforeMem.TotalAlloc) / (1 << 20)
	m.gcCycles = after.NumGC - m.beforeMem.NumGC
	m.gcPauseS = float64(after.PauseTotalNs-m.beforeMem.PauseTotalNs) / 1e9
	m.cpuS = cpuSeconds() - m.beforeCPU
}

// peakRSSMB returns the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
