package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"rexchange/internal/ctl"
	"rexchange/internal/des"
	"rexchange/internal/obs"
	"rexchange/internal/workload"
)

// campaign is a campaign workload: the configuration handed to the
// program, field by field, and the variant under test.
type campaign struct {
	cfg     des.CampaignConfig
	variant string // "solve" or "baseline", as in des.RunCampaign
}

// rebalanceCampaign is rexsim's default campaign at 1000 machines and
// 15,000 shards (`rexsim -machines 1000 -shards 15000 -variants solve`).
// Its drift of 0.3 is rexsim's default, not des.DefaultCampaignConfig's 0.
func rebalanceCampaign(seed int64) campaign {
	return campaign{variant: "solve", cfg: des.CampaignConfig{
		Machines: 1000, Shards: 15000, Fill: 0.85, Seed: seed,
		Rounds: 12,
		Sim: des.Config{
			Fanout: 8, TargetUtil: 0.6, Window: 10, DriftSigma: 0.3,
			Drag: 0.3, CostSigma: 0.5, MaxQueue: 0, Seed: seed,
		},
		Rate: 200, Diurnal: 0.4,
		HighWater: 1.25, LowWater: 1.10,
		Iterations: 400, Restarts: 2, SolveSeconds: 1,
		Bandwidth: 400, InFlight: 4,
	}}
}

// serveControl is the untreated control group on the same fleet: the
// trigger is parked, and 2000 qps over 120 windows load the event loop.
// 2000 qps is above the rate the arrival sampler can draw per 1 s bucket;
// the shortfall is reported (des.arrival_ratio and a table line), not
// sized away.
func serveControl(seed int64) campaign {
	cp := rebalanceCampaign(seed)
	cp.variant = "baseline"
	cp.cfg.Rate = 2000
	cp.cfg.Rounds = 120
	return cp
}

// campaignInputs is how many campaigns an untraced run cycles through:
// four fit a 40 s run.
const campaignInputs = 4

// campaignRun is one campaign, set up and ready to run.
type campaignRun struct {
	cp      campaign
	trace   *workload.Trace
	sim     *des.Sim
	ctl     *ctl.Controller
	reg     *obs.Registry
	journal *obs.Journal
	sink    *countingWriter
}

// setupCampaign builds what des.RunCampaign builds for the "solve" and
// "baseline" variants, with a registry and journal attached as rexsim and
// rexd attach them. With l non-nil the controller's clock, load source,
// move observer and solver recorder are the timing wrappers.
func setupCampaign(cp campaign, l *layers) (*campaignRun, error) {
	cfg := cp.cfg
	wcfg := workload.DefaultConfig()
	wcfg.Machines = cfg.Machines
	wcfg.Shards = cfg.Shards
	wcfg.TargetFill = cfg.Fill
	wcfg.Seed = cfg.Seed
	start := time.Now()
	inst, err := workload.Generate(wcfg)
	if err != nil {
		return nil, err
	}
	p := inst.Placement

	high, low := cfg.HighWater, cfg.LowWater
	switch cp.variant {
	case "baseline":
		high, low = 1e18, 1
	case "solve":
	default:
		return nil, fmt.Errorf("unsupported variant %q", cp.variant)
	}

	scfg := cfg.Sim
	if scfg.Seed == 0 {
		scfg.Seed = cfg.Seed
	}
	dur := float64(cfg.Rounds) * scfg.Window
	generated := time.Now()
	tr, err := workload.GenerateTrace(workload.TraceConfig{
		Duration: dur, BaseRate: cfg.Rate, DiurnalAmp: cfg.Diurnal, Period: dur,
		CostMu: 0, CostSigma: 0.5, Seed: cfg.Seed + 7,
	})
	if err != nil {
		return nil, err
	}
	traced := time.Now()
	sim, err := des.New(scfg, p, tr)
	if err != nil {
		return nil, err
	}
	if l != nil {
		l.generate += generated.Sub(start)
		l.trace += traced.Sub(generated)
		l.desNew += time.Since(traced)
	}
	r := &campaignRun{cp: cp, trace: tr, sim: sim, reg: obs.NewRegistry(), sink: &countingWriter{}}
	r.journal = obs.NewJournal(r.sink)
	sim.AttachObs(r.reg, r.journal)

	ccfg := ctl.DefaultConfig()
	ccfg.Window = scfg.Window
	ccfg.Policy = ctl.Policy{HighWater: high, LowWater: low}
	ccfg.Budget = ctl.Budget{
		Iterations: cfg.Iterations, Restarts: cfg.Restarts,
		SolveSeconds: cfg.SolveSeconds,
	}
	ccfg.Exec.Migration.Bandwidth = cfg.Bandwidth
	if cfg.InFlight > 0 {
		ccfg.Exec.Migration.Concurrency = cfg.InFlight
	}
	ccfg.Seed = cfg.Seed
	ccfg.Registry = r.reg
	ccfg.Journal = r.journal
	ccfg.Tracer = sim.Tracer()

	var clock ctl.Clock = sim
	var src ctl.LoadSource = sim
	ccfg.Exec.Observer = sim
	if l != nil {
		clock = timedClock{sim, l}
		src = timedSource{sim, l}
		ccfg.Exec.Observer = timedObserver{sim, l}
		ccfg.Solver.Recorder = &l.rec
	}
	if r.ctl, err = ctl.New(ccfg, clock, p, src); err != nil {
		return nil, err
	}
	return r, nil
}

// run drives the controller for the configured rounds plus the drain and
// returns the result in des.RunCampaign's shape.
func (r *campaignRun) run() (*des.CampaignResult, error) {
	if err := r.ctl.Run(r.cp.cfg.Rounds); err != nil {
		return nil, err
	}
	rep := r.sim.Report()
	ctr := r.ctl.ExecCounters()
	st := r.ctl.Status()
	res := &des.CampaignResult{
		Variant: r.cp.variant,
		Report:  rep,
		Rounds:  st.Round,
		Solves:  st.Solves,
		Moves:   ctr.Completed,
		Aborted: ctr.Aborted,
		Final:   r.ctl.Report().Imbalance,
	}
	if rep.Before.P99 > 0 && rep.During.Queries > 0 {
		res.P99Inflation = rep.During.P99 / rep.Before.P99
	}
	return res, nil
}

// offered counts the trace queries due before simulated time t: the
// simulator replays the trace modulo its duration, one Poisson draw per
// 1 s bucket at the bucket's trace count.
func offered(tr *workload.Trace, t float64) int64 {
	passes := math.Floor(t / tr.Duration)
	rem := t - passes*tr.Duration
	n := sort.Search(len(tr.Queries), func(i int) bool { return tr.Queries[i].At >= rem })
	return int64(passes)*int64(len(tr.Queries)) + int64(n)
}

// campaignCheck is one finished campaign's checked accounting.
type campaignCheck struct {
	offered, arrivals, failed int64
	shortfall                 bool
	digest                    string
}

// check verifies a finished campaign and counts its queries. An operation
// is one query the simulator generated; it fails when it is dropped.
// Arrivals more than 5σ above the trace's offered count, broken placement
// invariants or unbalanced query conservation fail the run: all its
// queries count as failed. Arrivals more than 5σ short of the offered
// count are the arrival sampler's known cap: queries never generated were
// never attempted, so they are reported as a shortfall, not as failures.
func (r *campaignRun) check(res *des.CampaignResult, out *outcome) campaignCheck {
	rep := res.Report
	c := campaignCheck{offered: offered(r.trace, r.sim.Now()), arrivals: int64(rep.Arrivals)}
	c.failed = int64(rep.All.Dropped)
	fail := func(format string, args ...any) {
		out.fail(format, args...)
		c.failed = c.arrivals
	}
	if err := r.ctl.SnapshotPlacement().CheckInvariants(); err != nil {
		fail("final placement: %v", err)
	}
	if got := rep.All.Queries + rep.All.Dropped + r.sim.InFlight(); got != rep.Arrivals {
		fail("completed %d + dropped %d + in flight %d != %d arrivals",
			rep.All.Queries, rep.All.Dropped, r.sim.InFlight(), rep.Arrivals)
	}
	sigma5 := 5 * math.Sqrt(float64(c.offered))
	gen := float64(rep.Arrivals)
	if gen > float64(c.offered)+sigma5 {
		fail("%d arrivals exceed the %d offered by more than 5σ", rep.Arrivals, c.offered)
	}
	c.shortfall = gen < float64(c.offered)-sigma5
	js, err := json.Marshal(res)
	if err != nil {
		fail("encode result: %v", err)
	}
	c.digest = fmt.Sprintf("%s\n%s", js, rep.Render())
	return c
}

// runCampaign measures one campaign workload; each unit sets up and runs
// one input's campaign.
func runCampaign(mk func(seed int64) campaign, seed int64, seconds float64, traced bool) (*outcome, error) {
	out := newOutcome()
	n := campaignInputs
	if traced {
		n = 1
	}
	t := newTally(n)
	var setups []float64
	err := cycle(deadline(seconds, traced), n, func(i, j int) error {
		start := time.Now()
		r, err := setupCampaign(mk(inputSeed(seed, j)), nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		var m memDelta
		m.begin()
		t0 := time.Now()
		res, err := r.run()
		wall := time.Since(t0).Seconds()
		m.end()
		if err != nil {
			return err
		}
		c := r.check(res, out)
		out.attempted += c.arrivals
		out.failed += c.failed
		if i < n {
			r.noteFigures(out, j, res, c)
		}
		t.add(out, j, sample{wall, m.allocMB, m.cpuS}, float64(res.Report.Events), c.digest)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if traced {
		return out, tracedCampaign(mk(inputSeed(seed, 0)), out, t.med(0, func(s sample) float64 { return s.wall }), t.digest[0])
	}
	out.setEndToEnd(setups, t, "campaign_s")
	out.note("sim_events_per_s %.1f events/s", t.workPerS())
	return out, nil
}

// noteFigures prints input j's latency and quality figures.
func (r *campaignRun) noteFigures(out *outcome, j int, res *des.CampaignResult, c campaignCheck) {
	d := res.Report.During
	out.note("input %d (seed %d):", j, r.cp.cfg.Seed)
	out.note("p50_during_s %.6f  p99_during_s %.6f  p999_during_s %.6f simulated s (during-migration queries %d)",
		d.P50, d.P99, p999(d), d.Queries)
	out.note("final_imbalance %.6f  solves %d  moves %d  aborted %d  events %d",
		res.Final, res.Solves, res.Moves, res.Aborted, res.Report.Events)
	out.note("offered %d  arrivals %d  arrival_ratio %.6f  backlog_end %d",
		c.offered, res.Report.Arrivals, frac(c.arrivals, c.offered), r.sim.InFlight())
	if c.shortfall {
		out.note("arrival shortfall: %d offered queries never generated, more than 5σ (README anomaly (a))",
			c.offered-c.arrivals)
	}
}

// p999 is the phase's p99.9, reported only when at least ten samples lie
// beyond it.
func p999(ps des.PhaseStats) float64 {
	if ps.Queries < 10000 {
		return 0
	}
	return ps.P999
}

// tracedCampaign runs one campaign with every seam wrapped and sets the
// per-layer metrics. Its outputs must match the untraced digest.
func tracedCampaign(cp campaign, out *outcome, untracedWall float64, digest string) error {
	l := &layers{}
	r, err := setupCampaign(cp, l)
	if err != nil {
		return err
	}
	var m memDelta
	m.begin()
	t0 := time.Now()
	res, err := r.run()
	run := time.Since(t0)
	m.end()
	if err != nil {
		return err
	}
	c := r.check(res, out)
	out.attempted += c.arrivals
	out.failed += c.failed
	if c.digest != digest {
		out.fail("traced campaign outputs differ from the untraced run")
	}
	expStart := time.Now()
	if err := r.reg.WritePrometheus(&countingWriter{}); err != nil {
		return err
	}
	exposition := time.Since(expStart)

	ctr := r.ctl.ExecCounters()
	slowest, skew := l.rec.critical(cp.cfg.Restarts)
	rep := res.Report
	self := run - l.sleep - l.next - l.observer
	out.layer("workload.generate_s", l.generate.Seconds())
	out.layer("workload.trace_s", l.trace.Seconds())
	out.setCoreMetrics(&l.rec, skew)
	out.layer("ctl.run_s", run.Seconds())
	out.layer("ctl.self_s", self.Seconds())
	out.layer("ctl.solves", float64(res.Solves))
	out.layer("ctl.moves_committed", float64(ctr.Completed))
	out.layer("ctl.commit_ratio", frac(int64(ctr.Completed), int64(ctr.Completed+ctr.Aborted)))
	out.layer("ctl.final_imbalance", res.Final)
	out.layer("des.new_s", l.desNew.Seconds())
	out.layer("des.sleep_s", l.sleep.Seconds())
	out.layer("des.sleep_calls", float64(l.sleepCalls))
	out.layer("des.next_s", l.next.Seconds())
	out.layer("des.observer_s", l.observer.Seconds())
	out.layer("des.observer_calls", float64(l.obsCalls))
	out.layer("des.events", float64(rep.Events))
	out.layer("des.events_per_s", float64(rep.Events)/l.sleep.Seconds())
	out.layer("des.arrivals", float64(rep.Arrivals))
	out.layer("des.offered", float64(c.offered))
	out.layer("des.arrival_ratio", frac(int64(rep.Arrivals), c.offered))
	out.layer("des.backlog_end", float64(r.sim.InFlight()))
	out.layer("des.during_queries", float64(rep.During.Queries))
	out.layer("des.p50_during_s", rep.During.P50)
	out.layer("des.p99_during_s", rep.During.P99)
	out.layer("des.p999_during_s", p999(rep.During))
	out.layer("obs.journal_records", float64(r.journal.Len()))
	out.layer("obs.journal_bytes", float64(r.sink.bytes))
	out.layer("obs.write_s", r.sink.spent.Seconds())
	out.layer("obs.exposition_s", exposition.Seconds())
	out.setGoMetrics(m, run.Seconds(), untracedWall)
	unattributed := run.Seconds() - slowest - l.sleep.Seconds() - l.next.Seconds() - l.observer.Seconds()
	out.layer("bench.unattributed_s", unattributed)
	out.note("shares of ctl.run_s: ctl.self_s %.3f  des.sleep_s %.3f  slowest-restart LNS %.3f  unattributed %.3f",
		self.Seconds()/run.Seconds(), l.sleep.Seconds()/run.Seconds(), slowest/run.Seconds(), unattributed/run.Seconds())
	out.fillLayers()
	return nil
}
