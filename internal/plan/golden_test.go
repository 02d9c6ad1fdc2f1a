package plan

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/vec"
	"rexchange/internal/workload"
)

// swapPair builds a deterministic (from, to) reassignment on a generated
// instance at the given static fill, with k fleet-average exchange
// machines appended. to exchanges up to swaps random shard pairs between
// machines wherever both shards fit after the exchange, so at high fill
// most swaps deadlock and the planner must stage through spare room.
func swapPair(tb testing.TB, machines, shards int, fill float64, k, swaps int, seed int64) (from, to *cluster.Placement) {
	tb.Helper()
	cfg := workload.DefaultConfig()
	cfg.Machines = machines
	cfg.Shards = shards
	cfg.TargetFill = fill
	cfg.Seed = seed
	inst, err := workload.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	c := inst.Placement.Cluster()
	n := float64(c.NumMachines())
	ec := c.WithExchange(k, c.TotalCapacity().Scale(1/n), c.TotalSpeed()/n)
	from, err = cluster.FromAssignment(ec, inst.Placement.Assignment())
	if err != nil {
		tb.Fatal(err)
	}
	w := from.Clone()
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < swaps; i++ {
		a := cluster.ShardID(r.Intn(shards))
		b := cluster.ShardID(r.Intn(shards))
		ma, mb := w.Home(a), w.Home(b)
		if ma == mb {
			continue
		}
		w.Move(a, mb)
		w.Move(b, ma)
		if !w.Used(ma).LEQ(ec.Machines[ma].Capacity) || !w.Used(mb).LEQ(ec.Machines[mb].Capacity) {
			w.Move(a, ma)
			w.Move(b, mb)
		}
	}
	return from, w
}

// ringPair builds a rotation that deadlocks everywhere and can only be
// broken by displacement: machine i hosts a big shard and a small one
// with room for neither another big, and the big shard on machine i must
// move to machine i+1. One spare machine fits a small shard but no big
// one, so no pending shard can be staged; the planner has to evict a
// settled small shard, after which the bigs rotate one machine per sweep
// and the evicted shard returns home. Sizes are jittered so the sweep
// order is not the ID order.
func ringPair(tb testing.TB, n int, seed int64) (from, to *cluster.Placement) {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	c := &cluster.Cluster{}
	var fromAssign, toAssign []cluster.MachineID
	for i := 0; i < n; i++ {
		big := 5.5 + r.Float64()
		small := 3.5 + r.Float64()
		c.Machines = append(c.Machines, cluster.Machine{
			ID: cluster.MachineID(i), Capacity: vec.Uniform(big + small + 2), Speed: 1,
		})
		for _, size := range []float64{big, small} {
			c.Shards = append(c.Shards, cluster.Shard{
				ID: cluster.ShardID(len(c.Shards)), Static: vec.Uniform(size), Load: 1,
			})
		}
		fromAssign = append(fromAssign, cluster.MachineID(i), cluster.MachineID(i))
		toAssign = append(toAssign, cluster.MachineID((i+1)%n), cluster.MachineID(i))
	}
	c.Machines = append(c.Machines, cluster.Machine{
		ID: cluster.MachineID(n), Capacity: vec.Uniform(4.6), Speed: 1,
	})
	return mustPlacement(tb, c, fromAssign), mustPlacement(tb, c, toAssign)
}

// planDigest hashes a plan's move sequence and its staging counters.
func planDigest(p *Plan) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(p.Moves)))
	for _, mv := range p.Moves {
		put(uint64(mv.S))
		put(uint64(mv.From))
		put(uint64(mv.To))
	}
	put(uint64(p.Staged))
	put(uint64(p.Displaced))
	return h.Sum64()
}

// TestBuildGoldenDigest pins Build's schedule bit for bit on swap pairs
// that need both staging and displacement. The digests were recorded
// before the pending set became a once-sorted slice; any change to the
// sweep order, the victim order or the staging choice changes them.
func TestBuildGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		name     string
		pair     func(testing.TB) (*cluster.Placement, *cluster.Placement)
		displace bool
		want     uint64
	}{
		{"swap/seed1", func(tb testing.TB) (*cluster.Placement, *cluster.Placement) {
			return swapPair(tb, 60, 900, 0.95, 2, 2000, 1)
		}, false, 0x62a53dbdd64bd5be},
		{"swap/seed2", func(tb testing.TB) (*cluster.Placement, *cluster.Placement) {
			return swapPair(tb, 60, 900, 0.95, 2, 2000, 2)
		}, false, 0xf49610d591bda79d},
		{"ring/seed1", func(tb testing.TB) (*cluster.Placement, *cluster.Placement) {
			return ringPair(tb, 40, 1)
		}, true, 0xee8c93aa8b47f717},
		{"ring/seed2", func(tb testing.TB) (*cluster.Placement, *cluster.Placement) {
			return ringPair(tb, 40, 2)
		}, true, 0x2ac38b673b12c76f},
	} {
		from, to := tc.pair(t)
		p, err := DefaultPlanner().Build(from, to)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		assertRealizes(t, p, from, to)
		if got := planDigest(p); got != tc.want {
			t.Errorf("%s: digest %#016x, want %#016x (moves %d, staged %d, displaced %d)",
				tc.name, got, tc.want, p.NumMoves(), p.Staged, p.Displaced)
		}
		if p.Staged == 0 || (tc.displace && p.Displaced == 0) {
			t.Errorf("%s: staged %d, displaced %d; the pair no longer exercises the path it pins",
				tc.name, p.Staged, p.Displaced)
		}
	}
}
