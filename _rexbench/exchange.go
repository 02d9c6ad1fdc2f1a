package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"rexchange/internal/cluster"
	"rexchange/internal/core"
	"rexchange/internal/plan"
	"rexchange/internal/workload"
)

// The exchange-solve workload: the paper's stringent regime (0.95 static
// fill) with K fleet-average exchange machines borrowed, solved by the
// parallel SRA portfolio in a closed loop with one caller.
const (
	exMachines   = 1000
	exShards     = 15000
	exFill       = 0.95
	exK          = 8
	exIterations = 1000
	exRestarts   = 2
	// exInputs instances per untraced run: per-instance allocation and
	// solve time vary by about 12%, so a dozen are averaged.
	exInputs = 12
)

// setupExchange generates the instance and rebuilds it over the fleet
// plus exK borrowed machines of fleet-average capacity and speed.
func setupExchange(seed int64, l *layers) (*cluster.Placement, error) {
	wcfg := workload.DefaultConfig()
	wcfg.Machines = exMachines
	wcfg.Shards = exShards
	wcfg.TargetFill = exFill
	wcfg.Seed = seed
	start := time.Now()
	inst, err := workload.Generate(wcfg)
	if err != nil {
		return nil, err
	}
	if l != nil {
		l.generate += time.Since(start)
	}
	c := inst.Placement.Cluster()
	n := float64(c.NumMachines())
	ec := c.WithExchange(exK, c.TotalCapacity().Scale(1/n), c.TotalSpeed()/n)
	return cluster.FromAssignment(ec, inst.Placement.Assignment())
}

// solve runs the parallel solver on initial with the given seed and
// recorder (nil untraced).
func solve(seed int64, initial *cluster.Placement, rec core.Recorder) (*core.Result, error) {
	cfg := core.DefaultConfig()
	cfg.Iterations = exIterations
	cfg.Seed = seed
	cfg.Recorder = rec
	return core.New(cfg).SolveParallel(initial, exRestarts)
}

// checkSolve verifies one solve and returns a digest of its deterministic
// outputs; a non-empty problem means the solve failed a check.
func checkSolve(initial *cluster.Placement, res *core.Result) (digest, problem string) {
	if err := res.Final.CheckInvariants(); err != nil {
		return "", fmt.Sprintf("final placement: %v", err)
	}
	replayed, err := res.Plan.Validate(initial)
	if err != nil {
		return "", fmt.Sprintf("plan replay: %v", err)
	}
	if !slices.Equal(replayed.Assignment(), res.Final.Assignment()) {
		return "", "plan replay does not reach the final placement"
	}
	if len(res.Returned) != exK {
		return "", fmt.Sprintf("%d machines returned, want %d", len(res.Returned), exK)
	}
	for _, m := range res.Returned {
		if !res.Final.IsVacant(m) {
			return "", fmt.Sprintf("returned machine %d is not vacant", m)
		}
	}
	if res.FailedRestarts > 0 {
		return "", fmt.Sprintf("%d restarts failed", res.FailedRestarts)
	}
	return fmt.Sprintf("%x %x %d %d %d %v", math.Float64bits(res.After.Imbalance),
		math.Float64bits(res.Objective), res.Plan.NumMoves(), res.MovedShards,
		res.PlanFallbacks, res.Returned), ""
}

// runExchangeSolve measures the exchange-solve workload: it builds each
// input's instance, then solves input i%n with solver seed equal to the
// input's seed.
func runExchangeSolve(seed int64, seconds float64, traced bool) (*outcome, error) {
	out := newOutcome()
	n := exInputs
	if traced {
		n = 1
	}
	end := deadline(seconds, traced)
	var setups []float64
	instances := make([]*cluster.Placement, n)
	for j := range instances {
		t0 := time.Now()
		p, err := setupExchange(inputSeed(seed, j), nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		instances[j] = p
	}

	t := newTally(n)
	var imbalance, moves float64
	err := cycle(end, n, func(i, j int) error {
		out.attempted++
		var m memDelta
		m.begin()
		t0 := time.Now()
		res, err := solve(inputSeed(seed, j), instances[j], nil)
		wall := time.Since(t0).Seconds()
		m.end()
		digest, problem := "", ""
		if err != nil {
			problem = err.Error()
		} else {
			digest, problem = checkSolve(instances[j], res)
		}
		if problem != "" {
			out.failed++
			out.fail("solve %d: %s", i, problem)
		} else if i < n {
			imbalance += res.After.Imbalance / float64(n)
			moves += float64(res.Plan.NumMoves()) / float64(n)
		}
		t.add(out, j, sample{wall, m.allocMB, m.cpuS}, exIterations*exRestarts, digest)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if traced {
		return out, tracedExchange(inputSeed(seed, 0), out, t.med(0, func(s sample) float64 { return s.wall }), t.digest[0])
	}
	out.setEndToEnd(setups, t, "solve_s_p50")
	out.note("imbalance_after %.6f  plan_moves %.1f (means over %d inputs)", imbalance, moves, n)
	return out, nil
}

// tracedExchange repeats input 0's solve with the recorder attached, plus
// one timed plan.Build, and sets the per-layer metrics. Its outputs must
// match the untraced digest.
func tracedExchange(seed int64, out *outcome, untracedWall float64, digest string) error {
	l := &layers{}
	initial, err := setupExchange(seed, l)
	if err != nil {
		return err
	}
	var m memDelta
	m.begin()
	out.attempted++
	t0 := time.Now()
	res, err := solve(seed, initial, &l.rec)
	solveTime := time.Since(t0)
	m.end()
	if err != nil {
		out.failed++
		out.fail("traced solve: %v", err)
		out.fillLayers()
		return nil
	}
	if got, problem := checkSolve(initial, res); problem != "" || got != digest {
		out.failed++
		out.fail("traced solve differs from the untraced run %s", problem)
	}
	t1 := time.Now()
	_, err = plan.DefaultPlanner().Build(initial, res.Final)
	buildTime := time.Since(t1)
	if err != nil {
		out.fail("plan.Build: %v", err)
	}

	slowest, skew := l.rec.critical(exRestarts)
	out.layer("workload.generate_s", l.generate.Seconds())
	out.layer("core.solve_s", solveTime.Seconds())
	out.setCoreMetrics(&l.rec, skew)
	out.layer("core.plan_fallbacks", float64(res.PlanFallbacks))
	out.layer("core.imbalance_after", res.After.Imbalance)
	out.layer("plan.build_s", buildTime.Seconds())
	out.layer("plan.moves", float64(res.Plan.NumMoves()))
	out.layer("plan.staged_moves", float64(res.Plan.NumMoves()-res.MovedShards))
	out.layer("plan.bytes_moved", res.Plan.BytesMoved(initial.Cluster()))
	out.setGoMetrics(m, solveTime.Seconds(), untracedWall)
	unattributed := solveTime.Seconds() - slowest - buildTime.Seconds()
	out.layer("bench.unattributed_s", unattributed)
	out.note("shares of core.solve_s: slowest-restart LNS %.3f  plan.build_s %.3f  unattributed %.3f",
		slowest/solveTime.Seconds(), buildTime.Seconds()/solveTime.Seconds(), unattributed/solveTime.Seconds())
	out.fillLayers()
	return nil
}
