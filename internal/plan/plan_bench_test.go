package plan

import (
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/vec"
	"rexchange/internal/workload"
)

// BenchmarkBuild measures planning a rotation-style reassignment on a
// tight 40-machine cluster with one exchange machine.
func BenchmarkBuild(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.Machines = 40
	cfg.Shards = 600
	cfg.TargetFill = 0.85
	cfg.Seed = 9
	inst, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ec := inst.Cluster.WithExchange(2, vec.Uniform(100), 1)
	from, err := cluster.FromAssignment(ec, inst.Placement.Assignment())
	if err != nil {
		b.Fatal(err)
	}
	// rotate every shard one machine over (mod the original fleet)
	toAssign := from.Assignment()
	for s, m := range toAssign {
		toAssign[s] = (m + 1) % cluster.MachineID(cfg.Machines)
	}
	to, err := cluster.FromAssignment(ec, toAssign)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DefaultPlanner().Build(from, to); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildLarge plans a swap-heavy reassignment at the
// exchange-solve scale: 1000 machines and 15,000 shards at 0.95 fill with
// 8 fleet-average exchange machines, where thousands of shards move and
// many swaps deadlock and need staging.
func BenchmarkBuildLarge(b *testing.B) {
	from, to := swapPair(b, 1000, 15000, 0.95, 8, 40000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DefaultPlanner().Build(from, to); err != nil {
			b.Fatal(err)
		}
	}
}
