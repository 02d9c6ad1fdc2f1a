// Package plan turns a desired reassignment (initial placement → final
// placement) into an ordered schedule of shard moves that respects the
// paper's transient resource constraint: while a shard moves from machine a
// to machine b, its static resources are held on both machines at once.
//
// The planner executes moves serially against a working copy of the
// placement. A move s: a→b is admissible only if b currently has free static
// capacity for s while s still occupies a — exactly the both-endpoints
// constraint. When no pending shard can move directly (a deadlock: every
// target is full of shards that themselves need to leave), the planner
// stages a blocking shard on an intermediate machine with spare room —
// preferentially a vacant or exchange machine. This multi-hop staging is the
// mechanism by which borrowed exchange machines unlock otherwise infeasible
// rebalances.
package plan

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"rexchange/internal/cluster"
)

// Move is one migration step: shard S relocates from From to To.
type Move struct {
	S    cluster.ShardID   `json:"s"`
	From cluster.MachineID `json:"from"`
	To   cluster.MachineID `json:"to"`
}

// Plan is an ordered, transiently feasible move schedule.
type Plan struct {
	Moves []Move `json:"moves"`
	// Staged counts moves that were intermediate hops rather than direct
	// relocations to the shard's final machine.
	Staged int `json:"staged,omitempty"`
	// Displaced counts shards that were not part of the reassignment but
	// had to be temporarily evicted to break deadlocks.
	Displaced int `json:"displaced,omitempty"`
}

// NumMoves returns the total number of migration steps.
func (p *Plan) NumMoves() int { return len(p.Moves) }

// BytesMoved returns the total disk volume migrated (sum of the moved
// shards' disk demand over all steps), a proxy for migration cost/duration.
func (p *Plan) BytesMoved(c *cluster.Cluster) float64 {
	t := 0.0
	for _, mv := range p.Moves {
		t += c.Shards[mv.S].Static[1] // vec.Disk
	}
	return t
}

// ErrInfeasible is returned when the planner cannot schedule the
// reassignment under the transient constraints (typically: no vacancy
// anywhere to stage through).
var ErrInfeasible = errors.New("plan: no transiently feasible move schedule found")

// Planner configures schedule construction.
type Planner struct {
	// MaxSteps bounds total scheduled moves; 0 means 8×(moves needed)+64.
	MaxSteps int
	// MaxHops bounds staging hops per shard before the planner refuses to
	// stage it again; 0 means 4.
	MaxHops int
	// AllowDisplace permits temporarily evicting shards that the
	// reassignment did not intend to move. Disabling it models operators
	// who only allow touching the shards selected by the optimizer.
	AllowDisplace bool
}

// DefaultPlanner returns the planner configuration used by the solver.
func DefaultPlanner() Planner {
	return Planner{AllowDisplace: true}
}

// Build computes a transiently feasible schedule that transforms from into
// to. Both placements must be over the same cluster with every shard
// assigned. The from placement is not modified.
func (pl Planner) Build(from, to *cluster.Placement) (*Plan, error) {
	if from.Cluster() != to.Cluster() {
		return nil, fmt.Errorf("plan: placements refer to different clusters")
	}
	c := from.Cluster()
	if from.UnassignedCount() > 0 || to.UnassignedCount() > 0 {
		return nil, fmt.Errorf("plan: placements must be complete (unassigned: from=%d to=%d)",
			from.UnassignedCount(), to.UnassignedCount())
	}

	b := &builder{
		pl:        pl,
		c:         c,
		w:         from.Clone(),
		target:    to.Assignment(),
		isPending: make([]bool, c.NumShards()),
		hops:      make([]int, c.NumShards()),
		seen:      make([]bool, c.NumMachines()),
		plan:      &Plan{},
	}
	for s := range b.target {
		if b.w.Home(cluster.ShardID(s)) != b.target[s] {
			b.pending = append(b.pending, cluster.ShardID(s))
			b.isPending[s] = true
		}
	}
	// The sweep order's key is static, so the pending shards are sorted
	// once here and kept in order from then on.
	slices.SortFunc(b.pending, b.pendingOrder)
	maxSteps := pl.MaxSteps
	if maxSteps == 0 {
		maxSteps = 8*len(b.pending) + 64
	}
	b.maxHops = pl.MaxHops
	if b.maxHops == 0 {
		b.maxHops = 4
	}

	w, plan := b.w, b.plan
	for len(b.pending) > 0 {
		if len(plan.Moves) >= maxSteps {
			return nil, fmt.Errorf("%w: step budget %d exhausted with %d shards pending",
				ErrInfeasible, maxSteps, len(b.pending))
		}

		// Phase 1: apply every direct move currently admissible. Largest
		// shards first: they are the hardest to fit, so give them first
		// pick of the free space.
		progress := false
		for _, s := range b.pending {
			t := b.target[s]
			if w.Home(s) == t {
				b.isPending[s] = false
				continue
			}
			if w.CanPlace(s, t) {
				plan.Moves = append(plan.Moves, Move{S: s, From: w.Home(s), To: t})
				w.Move(s, t)
				if cluster.DebugAsserts {
					w.MustInvariants("plan direct move")
				}
				b.isPending[s] = false
				progress = true
			}
		}
		b.dropResolved()
		if progress {
			continue
		}

		// Phase 2: deadlock. Stage one blocking shard to an intermediate
		// machine to open space.
		if b.stageOne() {
			continue
		}
		return nil, fmt.Errorf("%w: %d shards pending and no staging possible",
			ErrInfeasible, len(b.pending))
	}
	return plan, nil
}

// builder is the working state of one Build call.
type builder struct {
	pl      Planner
	c       *cluster.Cluster
	w       *cluster.Placement // working copy, advanced move by move
	target  []cluster.MachineID
	maxHops int
	plan    *Plan

	// pending holds the shards not yet on their target, in sweep order
	// (pendingOrder); isPending is its membership by shard ID.
	pending   []cluster.ShardID
	isPending []bool
	hops      []int // staging hops taken, by shard ID

	// stageOne scratch, reused across calls: seen marks machines already
	// in blocked and is all false between calls.
	seen    []bool
	blocked []cluster.MachineID
	victims []candidate
}

// pendingOrder orders pending shards by decreasing static footprint,
// ties by ID, so schedules are deterministic.
func (b *builder) pendingOrder(x, y cluster.ShardID) int {
	sx, sy := b.c.Shards[x].Static.MaxDim(), b.c.Shards[y].Static.MaxDim()
	switch {
	case sx > sy:
		return -1
	case sx < sy:
		return 1
	}
	return cmp.Compare(x, y)
}

// dropResolved compacts the shards a sweep resolved out of b.pending in
// place, keeping the rest in order.
func (b *builder) dropResolved() {
	kept := b.pending[:0]
	for _, s := range b.pending {
		if b.isPending[s] {
			kept = append(kept, s)
		}
	}
	b.pending = kept
}

// addPending inserts s into b.pending at its sorted position.
func (b *builder) addPending(s cluster.ShardID) {
	i, _ := slices.BinarySearchFunc(b.pending, s, b.pendingOrder)
	b.pending = slices.Insert(b.pending, i, s)
	b.isPending[s] = true
}

// stageOne relocates one shard off a blocked target machine to an
// intermediate machine, reporting whether it scheduled a move. Preference
// order: (1) a pending shard sitting on some pending shard's target —
// moving it is work we owe anyway; (2) with AllowDisplace, any shard on a
// blocked target, which then becomes pending to return.
func (b *builder) stageOne() bool {
	// Collect the set of blocked target machines, biggest blocked shard
	// first so we open space where it matters most.
	blocked := b.blocked[:0]
	for _, s := range b.pending {
		if t := b.target[s]; !b.seen[t] {
			b.seen[t] = true
			blocked = append(blocked, t)
		}
	}
	for _, t := range blocked {
		b.seen[t] = false
	}
	b.blocked = blocked

	// Preference 1: pending shards that sit on blocked machines.
	for _, t := range blocked {
		if b.stageFrom(t, true) {
			return true
		}
	}
	if !b.pl.AllowDisplace {
		return false
	}
	// Preference 2: displace settled shards off blocked machines.
	for _, t := range blocked {
		if b.stageFrom(t, false) {
			return true
		}
	}
	return false
}

// stageFrom tries to stage one shard off machine t: a pending one when
// pending is set, a settled one otherwise. It tries the smallest first:
// evicting the smallest shard that opens enough space minimizes wasted
// migration volume.
func (b *builder) stageFrom(t cluster.MachineID, pending bool) bool {
	victims := b.victims[:0]
	for i, n := 0, b.w.Count(t); i < n; i++ {
		if u := b.w.ShardAt(t, i); b.isPending[u] == pending {
			victims = append(victims, candidate{u, b.c.Shards[u].Static.MaxDim()})
		}
	}
	slices.SortFunc(victims, candidate.compare)
	b.victims = victims
	for _, v := range victims {
		if b.tryStage(v.victim, pending) {
			return true
		}
	}
	return false
}

// tryStage moves victim to its best staging machine, unless it already
// used up its hops or nothing fits it. A settled victim is displaced: it
// becomes pending to return to its (unchanged) target.
func (b *builder) tryStage(victim cluster.ShardID, pending bool) bool {
	if b.hops[victim] >= b.maxHops {
		return false
	}
	m := b.pl.bestStaging(b.c, b.w, victim, b.target[victim])
	if m == cluster.Unassigned {
		return false
	}
	b.plan.Moves = append(b.plan.Moves, Move{S: victim, From: b.w.Home(victim), To: m})
	b.plan.Staged++
	if !pending {
		b.plan.Displaced++
		b.addPending(victim)
	}
	b.w.Move(victim, m)
	if cluster.DebugAsserts {
		b.w.MustInvariants("plan staging move")
	}
	b.hops[victim]++
	return true
}

// candidate is an eviction candidate considered by stageOne, with its
// maximum static dimension.
type candidate struct {
	victim cluster.ShardID
	size   float64
}

// compare orders candidates smallest-first, ties by shard ID.
func (a candidate) compare(b candidate) int {
	switch {
	case a.size < b.size:
		return -1
	case a.size > b.size:
		return 1
	}
	return cmp.Compare(a.victim, b.victim)
}

// bestStaging picks the intermediate machine for victim: it must fit the
// shard now, must not be the victim's final target (that would be a direct
// move, already known inadmissible) — preferring exchange machines and
// machines with the most free room.
func (pl Planner) bestStaging(
	c *cluster.Cluster,
	w *cluster.Placement,
	victim cluster.ShardID,
	victimTarget cluster.MachineID,
) cluster.MachineID {
	best := cluster.Unassigned
	bestScore := -1.0
	cur := w.Home(victim)
	for m := 0; m < c.NumMachines(); m++ {
		id := cluster.MachineID(m)
		if id == cur || id == victimTarget {
			continue
		}
		if !w.CanPlace(victim, id) {
			continue
		}
		free := w.Free(id)
		score := free.MaxDim()
		if c.Machines[m].Exchange {
			score *= 4 // strongly prefer borrowed machines for staging
		}
		if w.IsVacant(id) {
			score *= 2
		}
		if score > bestScore {
			best, bestScore = id, score
		}
	}
	return best
}

// Save writes the plan as JSON to w, so schedules can be computed offline
// (rebalance -plan-out) and executed later (rexd -plan-in).
func (p *Plan) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(p)
}

// SaveFile writes the plan as JSON to path.
func (p *Plan) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("plan: save: %w", err)
	}
	defer f.Close()
	if err := p.Save(f); err != nil {
		return fmt.Errorf("plan: save %s: %w", path, err)
	}
	return f.Close()
}

// Load reads a JSON plan from r and checks structural sanity (IDs
// non-negative, no self-moves). Transient feasibility against a placement
// is checked by Validate.
func Load(r io.Reader) (*Plan, error) {
	var p Plan
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("plan: load: %w", err)
	}
	for i, mv := range p.Moves {
		if mv.S < 0 || mv.From < 0 || mv.To < 0 {
			return nil, fmt.Errorf("plan: load: move %d has negative IDs (%d: %d→%d)", i, mv.S, mv.From, mv.To)
		}
		if mv.From == mv.To {
			return nil, fmt.Errorf("plan: load: move %d is a self-move", i)
		}
	}
	return &p, nil
}

// LoadFile reads a JSON plan from path.
func LoadFile(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("plan: load: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Validate replays the plan from the given starting placement and verifies
// transient feasibility of every step, returning the resulting placement.
// It is the test oracle for Build and is also used by the CLI to double-
// check schedules before printing them.
func (p *Plan) Validate(from *cluster.Placement) (*cluster.Placement, error) {
	w := from.Clone()
	for i, mv := range p.Moves {
		if w.Home(mv.S) != mv.From {
			return nil, fmt.Errorf("plan: step %d moves shard %d from %d but it is on %d",
				i, mv.S, mv.From, w.Home(mv.S))
		}
		if mv.From == mv.To {
			return nil, fmt.Errorf("plan: step %d is a self-move", i)
		}
		if !w.CanPlace(mv.S, mv.To) {
			return nil, fmt.Errorf("plan: step %d (shard %d → machine %d) violates transient capacity",
				i, mv.S, mv.To)
		}
		w.Move(mv.S, mv.To)
		if cluster.DebugAsserts {
			w.MustInvariants("plan replay step")
		}
	}
	return w, nil
}
