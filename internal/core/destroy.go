package core

import (
	"math"

	"rexchange/internal/cluster"
)

// errIdentityPlan is a defensive sentinel; see state.finish.
var errIdentityPlan = errorString("core: internal error: identity reassignment failed to plan")

type errorString string

func (e errorString) Error() string { return string(e) }

// destroyRandom removes q uniformly random shards via a partial
// Fisher-Yates shuffle over a persistent scratch permutation. The buffer is
// reset to the identity each call — same cost as the allocation it replaces
// and it keeps the sampled prefix identical draw-for-draw to a fresh array —
// so the hot loop allocates nothing without perturbing the trajectory.
func (st *state) destroyRandom(q int) {
	n := st.cur.Cluster().NumShards()
	if len(st.shardPerm) != n {
		st.shardPerm = make([]cluster.ShardID, n)
	}
	for i := range st.shardPerm {
		st.shardPerm[i] = cluster.ShardID(i)
	}
	ids := st.shardPerm
	for i := 0; i < q && i < n; i++ {
		j := i + st.rng.Intn(n-i)
		ids[i], ids[j] = ids[j], ids[i]
		st.removeToPool(ids[i])
	}
}

// destroyWorst repeatedly removes the highest-load shard from the machine
// with the highest utilization — directly attacking the objective.
func (st *state) destroyWorst(q int) {
	c := st.cur.Cluster()
	for i := 0; i < q; i++ {
		worst := cluster.Unassigned
		worstU := -1.0
		for m := 0; m < c.NumMachines(); m++ {
			id := cluster.MachineID(m)
			if st.cur.IsVacant(id) {
				continue
			}
			if u := st.cur.Utilization(id); u > worstU {
				worst, worstU = id, u
			}
		}
		if worst == cluster.Unassigned {
			return
		}
		var hot cluster.ShardID = -1
		hotLoad := -1.0
		st.cur.EachShardOn(worst, func(s cluster.ShardID) {
			if c.Shards[s].Load > hotLoad {
				hot, hotLoad = s, c.Shards[s].Load
			}
		})
		if hot < 0 {
			return
		}
		st.removeToPool(hot)
	}
}

// destroyRelated is Shaw removal: a random seed shard plus the q−1 shards
// most similar to it in (load, static footprint), with a bonus for sharing
// the seed's machine. Removing related shards together lets repair
// recombine them more freely than unrelated random picks.
func (st *state) destroyRelated(q int) {
	n := st.cur.Cluster().NumShards()
	if n == 0 || q <= 0 {
		return
	}
	seed := cluster.ShardID(st.rng.Intn(n))
	nearest := st.nearestShards(seed, q-1)
	st.removeToPool(seed)
	for _, e := range nearest {
		st.removeToPool(cluster.ShardID(e.id))
	}
}

// nearestShards returns the k shards other than seed nearest to it in
// Shaw relatedness, ascending by (distance, shard ID). It is a bounded
// selection, so a call costs one distance per shard rather than a sort of
// the whole cluster. The result aliases st.selHeap.
//
//rexlint:noalloc
func (st *state) nearestShards(seed cluster.ShardID, k int) []ranked {
	c := st.cur.Cluster()
	seedSh := &c.Shards[seed]
	seedHome := st.cur.Home(seed)
	h := st.selHeap[:0]
	for i := range c.Shards {
		s := cluster.ShardID(i)
		if s == seed {
			continue
		}
		sh := &c.Shards[i]
		d := 0.0
		if st.loadScale > 0 {
			d += math.Abs(sh.Load-seedSh.Load) / st.loadScale
		}
		if st.staticScale > 0 {
			d += sh.Static.Dist2(seedSh.Static) / st.staticScale
		}
		if st.cur.Home(s) != seedHome {
			d += 0.3
		}
		h = keepLowest(h, k, ranked{d, i})
	}
	st.selHeap = h
	sortLowest(h)
	return h
}

// drainPicks is how many of the easiest-to-drain machines destroyDrain
// chooses among, for diversification.
const drainPicks = 4

// destroyDrain empties one machine entirely, making it returnable as
// compensation. It targets lightly loaded machines with few shards; if no
// machine qualifies (all host more than q+4 shards), it falls back to
// random removal so the iteration still perturbs something.
func (st *state) destroyDrain(q int) {
	c := st.cur.Cluster()
	limit := q + 4
	h := st.selHeap[:0]
	for m := 0; m < c.NumMachines(); m++ {
		id := cluster.MachineID(m)
		cnt := st.cur.Count(id)
		if cnt == 0 || cnt > limit {
			continue
		}
		h = keepLowest(h, drainPicks, ranked{st.cur.Utilization(id), m})
	}
	st.selHeap = h
	if len(h) == 0 {
		st.destroyRandom(q)
		return
	}
	sortLowest(h)
	pick := cluster.MachineID(h[st.rng.Intn(len(h))].id)
	ids := st.drainIDScratch[:0]
	for i, n := 0, st.cur.Count(pick); i < n; i++ {
		ids = append(ids, st.cur.ShardAt(pick, i))
	}
	st.drainIDScratch = ids
	for _, s := range ids {
		st.removeToPool(s)
	}
}

// removeToPool unassigns s and records it for repair.
func (st *state) removeToPool(s cluster.ShardID) {
	if st.cur.Home(s) == cluster.Unassigned {
		return
	}
	if err := st.cur.Remove(s); err == nil {
		st.pool = append(st.pool, s)
	}
}

func maxShardLoad(c *cluster.Cluster) float64 {
	m := 0.0
	for i := range c.Shards {
		if c.Shards[i].Load > m {
			m = c.Shards[i].Load
		}
	}
	return m
}

func maxShardStatic(c *cluster.Cluster) float64 {
	m := 0.0
	for i := range c.Shards {
		if d := c.Shards[i].Static.Norm2(); d > m {
			m = d
		}
	}
	return m
}
