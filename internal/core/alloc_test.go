package core

import (
	"testing"

	"rexchange/internal/cluster"
)

// skipIfDebugAsserts skips a zero-allocation assertion in the
// debugasserts build, where Rollback's invariant hook (MustInvariants →
// CheckInvariants) allocates by design. The default build enforces it.
func skipIfDebugAsserts(t *testing.T) {
	t.Helper()
	if cluster.DebugAsserts {
		t.Skip("debugasserts: Rollback's MustInvariants hook allocates by design; the default build enforces zero allocations")
	}
}

// TestDeltaKernelAllocFree proves the //rexlint:noalloc annotations on the
// delta kernel (incremental.go, cluster/txn.go) against the runtime: a full
// journal → sync → evaluate → rollback cycle performs zero heap
// allocations per iteration once the reusable buffers are warm. alloccheck
// verifies the same property statically over the call graph; this test
// keeps the static proof honest.
func TestDeltaKernelAllocFree(t *testing.T) {
	skipIfDebugAsserts(t)
	p := smallInstance(t, 11, 0)
	st := newState(DefaultConfig(), p, 0)
	st.initIncremental()

	shard := cluster.ShardID(0)
	otherMachine := func() cluster.MachineID {
		home := st.cur.Home(shard)
		if home == 0 {
			return 1
		}
		return 0
	}

	cycle := func() {
		st.cur.BeginTxn()
		st.saveObjState()
		st.cur.Move(shard, otherMachine())
		st.syncTouched()
		_ = st.evalIncremental()
		st.rollbackIncremental()
	}
	// Warm up: grow st.touched and the journal's backing array to their
	// steady-state capacity (the growth is waived as amortized in the
	// annotations, so it must not count here either).
	for i := 0; i < 8; i++ {
		cycle()
	}

	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("delta kernel cycle allocates %.1f times per iteration, want 0", allocs)
	}

	evalOnly := func() {
		st.refreshMachine(0)
		st.refreshShard(shard)
		_ = st.evalIncremental()
	}
	if allocs := testing.AllocsPerRun(200, evalOnly); allocs != 0 {
		t.Fatalf("refresh+eval allocates %.1f times per iteration, want 0", allocs)
	}
}

// TestDestroyRepairAllocFree extends the zero-allocation guarantee to the
// operators around the delta kernel: a warm Shaw destroy (bounded
// selection) followed by a cost-first greedy or regret repair and a
// rollback performs no heap allocation per iteration.
func TestDestroyRepairAllocFree(t *testing.T) {
	skipIfDebugAsserts(t)
	p := goldenInstance(t, 4, 4)
	st := newState(DefaultConfig(), p, 4)
	for _, repair := range []struct {
		name string
		fn   func(*state) bool
	}{
		{"greedy", (*state).repairGreedy},
		{"regret", (*state).repairRegret},
	} {
		failed := 0
		cycle := func() {
			st.cur.BeginTxn()
			st.pool = st.pool[:0]
			st.destroyRelated(40)
			if !repair.fn(st) {
				failed++
			}
			st.cur.Rollback()
		}
		// Warm up the scratch buffers, the journal and the hosted-shard
		// lists to their steady-state capacity.
		for i := 0; i < 200; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Fatalf("destroyRelated + %s + Rollback allocates %.1f times per iteration, want 0", repair.name, allocs)
		}
		if failed > 0 {
			t.Fatalf("%s repair failed %d times; the cycle must exercise full repairs", repair.name, failed)
		}
	}
}
