package machine

import (
	"revive/internal/arch"
	"revive/internal/core"
	"revive/internal/sim"
)

// Error detection (section 3.1.2): the paper assumes detection with a
// bounded latency (80 ms in its experiments) and accounts the window
// between error and detection as lost work. Here the window is *executed*:
// the machine keeps running between the error and its detection, and the
// rollback genuinely discards that work — the honest version of the
// paper's arithmetic.
//
// The rollback target is the newest checkpoint committed before the error
// occurred. A checkpoint that commits inside the detection window is not
// safe (the error predates it), which is exactly why the paper retains two
// checkpoints: detection latencies up to about one interval always leave a
// safe target within the retention window.

// DetectionReport describes one automatic error-handling cycle.
type DetectionReport struct {
	ErrorAt    sim.Time
	DetectedAt sim.Time
	Lost       arch.NodeID // -1 for transients
	Target     uint64
	Recovery   core.Report
	// LostWork is the executed-and-discarded window: detection latency
	// plus the work since the target checkpoint.
	LostWork sim.Time
	// Err reports a failed cycle: a *RetentionError when the detection
	// latency outlived the retention window, or a recovery/resume error.
	// The machine is left frozen in that case.
	Err error
}

// ScheduleTransientError arms a system-wide transient error at time `at`,
// detected after detectLatency. The machine continues executing through
// the detection window (memory, logs and parity are intact for a
// transient), then freezes, recovers to the last checkpoint committed
// before the error, and resumes. done receives the report.
func (m *Machine) ScheduleTransientError(at, detectLatency sim.Time, done func(DetectionReport)) {
	m.scheduleError(at, detectLatency, -1, done)
}

// ScheduleNodeLoss arms the loss of a node at time `at`, detected after
// detectLatency. Approximation (documented in DESIGN.md): the module's
// content is destroyed at *detection* time — modeling the window in which
// the failing node's state is undetectably wrong by rolling it back, while
// letting the simulation continue running through the window (a truly dead
// module would stall its requesters; the paper's accounting treats the
// window as lost work either way).
func (m *Machine) ScheduleNodeLoss(at, detectLatency sim.Time, node arch.NodeID,
	done func(DetectionReport)) {
	m.scheduleError(at, detectLatency, node, done)
}

// ScheduleCPULoss arms the death of one node's processor and caches at time
// `at`, detected after detectLatency. The node's memory module, directory
// and log survive (the split fault domain), so recovery skips Phase 2 and
// rolls back from the surviving log.
func (m *Machine) ScheduleCPULoss(at, detectLatency sim.Time, node arch.NodeID,
	done func(DetectionReport)) {
	m.scheduleFault(at, detectLatency, node, -1,
		func() { m.InjectCPULoss(node) }, done)
}

// ScheduleMemPartialLoss arms the loss of the frame range
// [loFrame, loFrame+frames) of one node's memory at time `at`, detected
// after detectLatency. The node's processor survives; recovery reconstructs
// only the damaged range. The same detection-time approximation as
// ScheduleNodeLoss applies.
func (m *Machine) ScheduleMemPartialLoss(at, detectLatency sim.Time, node arch.NodeID,
	loFrame, frames arch.Frame, done func(DetectionReport)) {
	m.scheduleFault(at, detectLatency, node, -1,
		func() { m.InjectMemPartialLoss(node, loFrame, frames) }, done)
}

// ResolveUnreachable decides which endpoint of a failed transport path is
// actually at fault. When a sender exhausts its retransmit budget it only
// knows the *path* src->dst is dead — if src's own router died, src sees
// every destination as unreachable and would blame the wrong node. The
// resolver takes the global detector's view the paper assumes (section
// 3.1.2 treats detection as given): it counts how many other live nodes
// can still route to each endpoint, and blames the more isolated one; on a
// tie the destination is blamed (the sender demonstrably still has a
// working egress for the report itself).
func (m *Machine) ResolveUnreachable(src, dst arch.NodeID) arch.NodeID {
	reach := func(n arch.NodeID) int {
		cnt := 0
		for w := 0; w < m.Cfg.Nodes; w++ {
			id := arch.NodeID(w)
			if id == src || id == dst {
				continue
			}
			if m.Net.Reachable(id, n) {
				cnt++
			}
		}
		return cnt
	}
	if reach(src) < reach(dst) {
		return src
	}
	return dst
}

func (m *Machine) scheduleError(at, detectLatency sim.Time, node arch.NodeID,
	done func(DetectionReport)) {
	inject := func() { m.InjectTransient() }
	if node >= 0 {
		inject = func() { m.InjectNodeLoss(node) }
	}
	m.scheduleFault(at, detectLatency, node, node, inject, done)
}

// scheduleFault is the shared error-detection-recovery cycle: at time `at`
// the rollback target pins to the newest committed checkpoint, detectLatency
// later inject fires, and the machine recovers and resumes. lost labels the
// report; recoverArg is the cross-check node passed to Recover (-1 for
// damage that does not fully destroy a memory module). The cycle freezes,
// recovers and resumes from inside an event.
func (m *Machine) scheduleFault(at, detectLatency sim.Time, lost, recoverArg arch.NodeID,
	inject func(), done func(DetectionReport)) {
	m.Engine.At(at, func() {
		rep := DetectionReport{ErrorAt: m.Engine.Now(), Lost: lost}
		// The newest checkpoint committed strictly before the error is
		// the safe target.
		rep.Target = m.Ckpt.Epoch()
		m.Engine.After(detectLatency, func() {
			rep.DetectedAt = m.Engine.Now()
			if snap, ok := m.SnapshotAt(rep.Target); ok {
				rep.LostWork = rep.DetectedAt - snap.Time
			}
			inject()
			// Recover surfaces an aged-out target as a *RetentionError
			// before mutating anything.
			var err error
			rep.Recovery, err = m.Recover(recoverArg, rep.Target)
			if err == nil {
				err = m.Resume(rep.Recovery)
			}
			rep.Err = err
			done(rep)
		})
	})
}
