package core

import (
	"slices"

	"revive/internal/arch"
	"revive/internal/coherence"
)

// coneStrategy models localized rollback (Dichev et al., arXiv:1806.01611):
// logging, parity and checkpointing run exactly as in the revive backend
// (the embedded reviveStrategy), but the strategy additionally tracks the
// per-epoch write-dependence cone of every node, and on a fault plans a
// recovery scope that rolls back only the cone — the victim plus every
// node that (transitively) consumed post-checkpoint data influenced by
// it. Lines whose post-checkpoint writers all lie outside the cone keep
// their latest content. When the cone grows past half the machine the
// bookkeeping no longer pays and the plan falls back to a global
// rollback, identical to the revive backend.
//
// The simplification this simulator leans on: workloads are pre-generated
// deterministic op streams (no data-dependent control flow), so resumed
// execution re-produces identical values and restoring every processor
// context from the snapshot stays correct even when only the cone's
// memory was rolled back. The measurable effect is Phase 3: fewer entries
// restored, fewer demand rebuilds.
type coneStrategy struct {
	reviveStrategy
	tracker *coneTracker
}

func newConeStrategy() *coneStrategy {
	return &coneStrategy{tracker: newConeTracker()}
}

func (s *coneStrategy) Name() string { return "conelog" }

// CommitEpoch runs the common commit, then prunes dependence state that
// aged out of the retention window (idempotent across the per-controller
// calls of one global commit).
func (s *coneStrategy) CommitEpoch(c *Controller, epoch uint64, retain int) {
	s.reviveStrategy.CommitEpoch(c, epoch, retain)
	s.tracker.commit(epoch, retain)
}

// FlowObserver exposes the dependence tracker for the machine layer to
// install on every directory controller.
func (s *coneStrategy) FlowObserver() coherence.FlowObserver { return s.tracker }

// PlanRecovery implements RecoveryPlanner: compute the dependence cone of
// the victims and decide between a scoped and a global rollback.
func (s *coneStrategy) PlanRecovery(victims []arch.NodeID, targetEpoch uint64, nodes int) *RecoveryScope {
	if len(victims) == 0 {
		// A transient fault of unknown origin could have influenced
		// anything: global rollback.
		return &RecoveryScope{Global: true}
	}
	cone := s.tracker.cone(victims, targetEpoch)
	members := make([]arch.NodeID, 0, len(cone))
	for n := range cone {
		members = append(members, n)
	}
	slices.Sort(members)
	if len(cone)*2 > nodes {
		// The cone escaped past half the machine: the localized
		// bookkeeping no longer pays off; roll back globally.
		return &RecoveryScope{Cone: members, Global: true}
	}
	return &RecoveryScope{
		Cone:    members,
		Restore: s.tracker.restoreFilter(cone, targetEpoch),
	}
}

// coneTracker is the machine-global write-dependence ledger behind the
// conelog strategy. It implements coherence.FlowObserver.
//
// The observer methods run as home-node events on the engine's one event
// loop; the ledger is only *read* (cone, restoreFilter) by recovery. All
// recorded facts are set memberships, so its content does not depend on
// the order of the observations.
type coneTracker struct {
	epoch uint64
	// writers[e][line] is the set of nodes that obtained write permission
	// for line while epoch e was current.
	writers map[uint64]map[arch.LineAddr]map[arch.NodeID]bool
	// deps[e][consumer] is the set of producers whose epoch-e-or-later
	// writes the consumer read (or overwrote) while epoch e was current.
	deps map[uint64]map[arch.NodeID]map[arch.NodeID]bool
}

func newConeTracker() *coneTracker {
	return &coneTracker{
		writers: map[uint64]map[arch.LineAddr]map[arch.NodeID]bool{},
		deps:    map[uint64]map[arch.NodeID]map[arch.NodeID]bool{},
	}
}

// addDeps records req consuming the recorded writers of line (any
// retained epoch): data written since an old-enough checkpoint flowed
// into req.
func (t *coneTracker) addDeps(req arch.NodeID, line arch.LineAddr) {
	var dst map[arch.NodeID]bool
	for _, byLine := range t.writers {
		for w := range byLine[line] {
			if w == req {
				continue
			}
			if dst == nil {
				de := t.deps[t.epoch]
				if de == nil {
					de = map[arch.NodeID]map[arch.NodeID]bool{}
					t.deps[t.epoch] = de
				}
				dst = de[req]
				if dst == nil {
					dst = map[arch.NodeID]bool{}
					de[req] = dst
				}
			}
			dst[w] = true
		}
	}
}

// ObserveRead implements coherence.FlowObserver.
func (t *coneTracker) ObserveRead(req arch.NodeID, line arch.LineAddr) {
	t.addDeps(req, line)
}

// ObserveWrite implements coherence.FlowObserver. A write both consumes
// the line's previous writers (WAW: rolling them back would have to undo
// this write too) and registers req as a writer of the current epoch.
func (t *coneTracker) ObserveWrite(req arch.NodeID, line arch.LineAddr) {
	t.addDeps(req, line)
	byLine := t.writers[t.epoch]
	if byLine == nil {
		byLine = map[arch.LineAddr]map[arch.NodeID]bool{}
		t.writers[t.epoch] = byLine
	}
	set := byLine[line]
	if set == nil {
		set = map[arch.NodeID]bool{}
		byLine[line] = set
	}
	set[req] = true
}

// commit advances the tracker to the newly committed epoch and prunes
// state older than the retention window (mirrors HWLog.ReclaimTo).
func (t *coneTracker) commit(epoch uint64, retain int) {
	if retain < 2 {
		retain = 2
	}
	if epoch > t.epoch {
		t.epoch = epoch
	}
	if epoch+1 < uint64(retain) {
		return
	}
	floor := epoch + 1 - uint64(retain)
	for e := range t.writers {
		if e < floor {
			delete(t.writers, e)
		}
	}
	for e := range t.deps {
		if e < floor {
			delete(t.deps, e)
		}
	}
}

// cone returns the transitive consumer closure of the victims over the
// dependence edges recorded since targetEpoch: every node whose
// post-checkpoint state may have been influenced by a victim. The result
// is a fixpoint and independent of map iteration order.
func (t *coneTracker) cone(victims []arch.NodeID, targetEpoch uint64) map[arch.NodeID]bool {
	cone := map[arch.NodeID]bool{}
	for _, v := range victims {
		cone[v] = true
	}
	for changed := true; changed; {
		changed = false
		for e, byConsumer := range t.deps {
			if e < targetEpoch {
				continue
			}
			for consumer, producers := range byConsumer {
				if cone[consumer] {
					continue
				}
				for p := range producers {
					if cone[p] {
						cone[consumer] = true
						changed = true
						break
					}
				}
			}
		}
	}
	return cone
}

// restoreFilter returns the Phase 3 predicate: restore a line iff some
// post-checkpoint writer of it lies inside the cone, or no writer was
// recorded at all (conservative: an untracked flow — e.g. an entry whose
// write predates the tracker's attribution — must be assumed tainted).
func (t *coneTracker) restoreFilter(cone map[arch.NodeID]bool, targetEpoch uint64) func(arch.LineAddr) bool {
	return func(line arch.LineAddr) bool {
		recorded := false
		for e, byLine := range t.writers {
			if e < targetEpoch {
				continue
			}
			for w := range byLine[line] {
				recorded = true
				if cone[w] {
					return true
				}
			}
		}
		return !recorded
	}
}
