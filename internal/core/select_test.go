package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/vec"
)

// fullSortLowest is the reference the bounded selection replaces: sort
// every candidate by (key, id) and keep the first k.
func fullSortLowest(all []ranked, k int) []ranked {
	s := append([]ranked(nil), all...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].key < s[j].key {
			return true
		}
		if s[i].key > s[j].key {
			return false
		}
		return s[i].id < s[j].id
	})
	if k < len(s) {
		s = s[:k]
	}
	return s
}

// TestKeepLowestMatchesFullSort checks keepLowest+sortLowest against the
// full sort on random inputs drawn from a handful of keys (so ties are
// the rule, not the exception), for k below, equal to and above n.
func TestKeepLowestMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h []ranked
	for trial := 0; trial < 2000; trial++ {
		n := r.Intn(60)
		k := r.Intn(n + 5)
		all := make([]ranked, n)
		for i, id := range r.Perm(n) {
			all[i] = ranked{float64(r.Intn(4)) * 0.25, id}
		}
		h = h[:0]
		for _, e := range all {
			h = keepLowest(h, k, e)
		}
		sortLowest(h)
		want := fullSortLowest(all, k)
		if len(h) != len(want) {
			t.Fatalf("trial %d (n=%d k=%d): kept %d, want %d", trial, n, k, len(h), len(want))
		}
		for i := range want {
			if h[i] != want[i] {
				t.Fatalf("trial %d (n=%d k=%d): position %d is %+v, want %+v", trial, n, k, i, h[i], want[i])
			}
		}
	}
}

// refNearestShards is destroyRelated's selection as it was before the
// bounded heap: every shard's distance, fully sorted.
func refNearestShards(st *state, seed cluster.ShardID, k int) []ranked {
	c := st.cur.Cluster()
	loadScale, staticScale := maxShardLoad(c), maxShardStatic(c)
	seedSh := &c.Shards[seed]
	var all []ranked
	for i := range c.Shards {
		if cluster.ShardID(i) == seed {
			continue
		}
		sh := &c.Shards[i]
		d := 0.0
		if loadScale > 0 {
			d += math.Abs(sh.Load-seedSh.Load) / loadScale
		}
		if staticScale > 0 {
			d += sh.Static.Dist2(seedSh.Static) / staticScale
		}
		if st.cur.Home(cluster.ShardID(i)) != st.cur.Home(seed) {
			d += 0.3
		}
		all = append(all, ranked{d, i})
	}
	return fullSortLowest(all, k)
}

// TestNearestShardsMatchesFullSort checks the Shaw selection against the
// full-sort reference on a real instance, including k ≥ n−1 (every other
// shard is selected).
func TestNearestShardsMatchesFullSort(t *testing.T) {
	p := smallInstance(t, 5, 2)
	st := newState(quickConfig(), p, 2)
	n := p.Cluster().NumShards()
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		seed := cluster.ShardID(r.Intn(n))
		k := r.Intn(40)
		if trial%10 == 0 {
			k = n - 1 + r.Intn(3)
		}
		got := st.nearestShards(seed, k)
		want := refNearestShards(st, seed, k)
		if len(got) != len(want) {
			t.Fatalf("seed shard %d k=%d: %d selected, want %d", seed, k, len(got), len(want))
		}
		for i := range want {
			if got[i].id != want[i].id || math.Float64bits(got[i].key) != math.Float64bits(want[i].key) {
				t.Fatalf("seed shard %d k=%d: position %d is %+v, want %+v", seed, k, i, got[i], want[i])
			}
		}
	}
}

// refBestMachineFor is bestMachineFor without the cost-first prune.
func refBestMachineFor(st *state, s cluster.ShardID) (cluster.MachineID, float64) {
	best := cluster.Unassigned
	bestCost := math.Inf(1)
	bestSlack := -1.0
	for m := 0; m < st.cur.Cluster().NumMachines(); m++ {
		id := cluster.MachineID(m)
		if !st.canInsert(s, id) {
			continue
		}
		cost := st.insertCost(s, id)
		if cost < bestCost-1e-12 {
			best, bestCost = id, cost
			bestSlack = st.cur.Free(id).MaxDim()
		} else if cost <= bestCost+1e-12 {
			if slack := st.cur.Free(id).MaxDim(); slack > bestSlack {
				best, bestSlack = id, slack
			}
		}
	}
	return best, bestCost
}

// refBestTwoMachinesFor is bestTwoMachinesFor without the prune.
func refBestTwoMachinesFor(st *state, s cluster.ShardID) (cluster.MachineID, float64, float64) {
	best := cluster.Unassigned
	c1, c2 := math.Inf(1), math.Inf(1)
	bestSlack := -1.0
	for m := 0; m < st.cur.Cluster().NumMachines(); m++ {
		id := cluster.MachineID(m)
		if !st.canInsert(s, id) {
			continue
		}
		cost := st.insertCost(s, id)
		switch {
		case cost < c1-1e-12:
			c2 = c1
			best, c1 = id, cost
			bestSlack = st.cur.Free(id).MaxDim()
		case cost <= c1+1e-12:
			if cost < c2 {
				c2 = cost
			}
			if slack := st.cur.Free(id).MaxDim(); slack > bestSlack {
				best, bestSlack = id, slack
			}
		case cost < c2:
			c2 = cost
		}
	}
	return best, c1, c2
}

// refBestTwoAmong is bestTwoAmong without the prune.
func refBestTwoAmong(st *state, s cluster.ShardID, cands []cluster.MachineID) (cluster.MachineID, float64, float64) {
	m1 := cluster.Unassigned
	c1, c2 := math.Inf(1), math.Inf(1)
	for _, id := range cands {
		if !st.canInsert(s, id) {
			continue
		}
		cost := st.insertCost(s, id)
		switch {
		case cost < c1:
			m1, c2, c1 = id, c1, cost
		case cost < c2:
			c2 = cost
		}
	}
	return m1, c1, c2
}

// tieInstance is a 40-machine cluster on which insertion-cost ties are
// the rule: unit speeds, integer shard loads and capacities that differ,
// so tied machines differ in slack and the scans' slack tie-break decides.
func tieInstance(t *testing.T) *cluster.Placement {
	t.Helper()
	r := rand.New(rand.NewSource(8))
	c := &cluster.Cluster{}
	for m := 0; m < 40; m++ {
		c.Machines = append(c.Machines, cluster.Machine{
			ID: cluster.MachineID(m), Capacity: vec.Uniform(float64(60 + 10*r.Intn(5))), Speed: 1,
		})
	}
	assign := make([]cluster.MachineID, 400)
	for s := range assign {
		c.Shards = append(c.Shards, cluster.Shard{
			ID: cluster.ShardID(s), Static: vec.Uniform(float64(1 + r.Intn(5))), Load: float64(1 + r.Intn(3)),
		})
		assign[s] = cluster.MachineID(s % 40)
	}
	p, err := cluster.FromAssignment(c, assign)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPrunedScansMatchUnpruned checks every cost-first repair scan
// against its unpruned reference, bit for bit, on shards pulled out of
// destroyed neighborhoods. The generated instances borrow four identical
// exchange machines but return none (k=0), so vacant machines are
// insertable and tie inside the 1e-12 band; tieInstance adds ties between
// machines of different slack.
func TestPrunedScansMatchUnpruned(t *testing.T) {
	for _, inst := range []struct {
		name string
		p    *cluster.Placement
	}{
		{"small", smallInstance(t, 17, 4)},
		{"golden", goldenInstance(t, 3, 4)},
		{"ties", tieInstance(t)},
	} {
		st := newState(quickConfig(), inst.p, 0)
		checked := 0
		for round := 0; round < 30; round++ {
			st.cur.BeginTxn()
			st.pool = st.pool[:0]
			st.destroyRandom(10)
			cands := st.candidateMachines()
			for _, s := range st.pool {
				m, cost := st.bestMachineFor(s)
				wm, wcost := refBestMachineFor(st, s)
				if m != wm || math.Float64bits(cost) != math.Float64bits(wcost) {
					t.Fatalf("%s: bestMachineFor(%d) = (%d, %v), unpruned (%d, %v)", inst.name, s, m, cost, wm, wcost)
				}
				m, c1, c2 := st.bestTwoMachinesFor(s)
				wm, w1, w2 := refBestTwoMachinesFor(st, s)
				if m != wm || math.Float64bits(c1) != math.Float64bits(w1) || math.Float64bits(c2) != math.Float64bits(w2) {
					t.Fatalf("%s: bestTwoMachinesFor(%d) = (%d, %v, %v), unpruned (%d, %v, %v)",
						inst.name, s, m, c1, c2, wm, w1, w2)
				}
				m, c1, c2 = st.bestTwoAmong(s, cands)
				wm, w1, w2 = refBestTwoAmong(st, s, cands)
				if m != wm || math.Float64bits(c1) != math.Float64bits(w1) || math.Float64bits(c2) != math.Float64bits(w2) {
					t.Fatalf("%s: bestTwoAmong(%d) = (%d, %v, %v), unpruned (%d, %v, %v)",
						inst.name, s, m, c1, c2, wm, w1, w2)
				}
				checked++
			}
			if !st.repairGreedy() {
				t.Fatalf("%s: round %d: greedy repair failed", inst.name, round)
			}
			if round%3 == 0 {
				st.cur.Rollback()
			} else {
				st.cur.Commit()
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no scans checked", inst.name)
		}
	}
}
