package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/workload"
)

// stringentInstance is the paper's stringent regime: machines × shards at
// 0.95 static fill, plus k borrowed machines of fleet-average capacity and
// speed — the exchange-solve benchmark's shape.
func stringentInstance(tb testing.TB, machines, shards int, seed int64, k int) *cluster.Placement {
	tb.Helper()
	cfg := workload.DefaultConfig()
	cfg.Machines = machines
	cfg.Shards = shards
	cfg.TargetFill = 0.95
	cfg.Seed = seed
	inst, err := workload.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	c := inst.Placement.Cluster()
	n := float64(c.NumMachines())
	ec := c.WithExchange(k, c.TotalCapacity().Scale(1/n), c.TotalSpeed()/n)
	p, err := cluster.FromAssignment(ec, inst.Placement.Assignment())
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// goldenInstance is the stringent regime at a fifth of the benchmark's
// scale: 200 machines and 3000 shards.
func goldenInstance(tb testing.TB, seed int64, k int) *cluster.Placement {
	tb.Helper()
	return stringentInstance(tb, 200, 3000, seed, k)
}

// resultDigest hashes everything a caller acts on: the final assignment,
// the move schedule, the returned machines and the objective's bits.
func resultDigest(r *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, m := range r.Final.Assignment() {
		put(uint64(m))
	}
	put(uint64(len(r.Plan.Moves)))
	for _, mv := range r.Plan.Moves {
		put(uint64(mv.S))
		put(uint64(mv.From))
		put(uint64(mv.To))
	}
	put(uint64(len(r.Returned)))
	for _, m := range r.Returned {
		put(uint64(m))
	}
	put(math.Float64bits(r.Objective))
	return h.Sum64()
}

// TestSolveParallelGoldenDigest pins SolveParallel's output bit for bit
// on the stringent instance. The digests were recorded before the
// bounded Shaw selection, the cost-first repair pruning and the
// sort-once planner landed; any change to the search trajectory, the
// planner's move order or the objective arithmetic changes them.
func TestSolveParallelGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		k    int
		want uint64
	}{
		{seed: 1, k: 4, want: 0x2ef7a479e23a37d0},
		{seed: 2, k: 2, want: 0xc6a5388ca195a399},
	} {
		p := goldenInstance(t, tc.seed, tc.k)
		cfg := DefaultConfig()
		cfg.Iterations = 300
		cfg.Seed = tc.seed
		res, err := New(cfg).SolveParallel(p, 2)
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		if got := resultDigest(res); got != tc.want {
			t.Errorf("seed %d k=%d: digest %#016x, want %#016x (moves %d, moved %d, objective %v)",
				tc.seed, tc.k, got, tc.want, res.Plan.NumMoves(), res.MovedShards, res.Objective)
		}
	}
}
