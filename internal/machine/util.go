package machine

import (
	"fmt"
	"io"

	"revive/internal/arch"
	"revive/internal/sim"
)

// NodeUtilization summarizes one node's resource usage over a run: how
// busy its memory port and bus were, how much state it accumulated. The
// per-node view exposes imbalances the aggregate statistics hide — the
// dedicated-parity hot spot of section 3.1 shows up here directly.
type NodeUtilization struct {
	Node        arch.NodeID
	MemAccesses uint64
	MemPortBusy sim.Time
	BusBusy     sim.Time
	DirEntries  int
	DirtyLines  int
	LogBytes    uint64
	PagesHomed  int
}

// Utilization gathers the per-node report.
func (m *Machine) Utilization() []NodeUtilization {
	out := make([]NodeUtilization, m.Cfg.Nodes)
	for n := 0; n < m.Cfg.Nodes; n++ {
		id := arch.NodeID(n)
		u := NodeUtilization{
			Node:        id,
			MemAccesses: m.Mems[n].Accesses,
			MemPortBusy: m.Mems[n].PortBusy(),
			BusBusy:     m.Caches[n].BusBusy(),
			DirEntries:  m.Dirs[n].Entries(),
			DirtyLines:  m.Caches[n].DirtyLines(),
			PagesHomed:  len(m.AMap.PagesHomedAt(id)),
		}
		if m.Ctrls != nil {
			u.LogBytes = m.Ctrls[n].Log().RetainedBytes()
		}
		out[n] = u
	}
	return out
}

// WriteUtilization renders the per-node report with utilizations relative
// to the elapsed simulated time.
func (m *Machine) WriteUtilization(w io.Writer) {
	elapsed := m.Engine.Now()
	if elapsed == 0 {
		elapsed = 1
	}
	fmt.Fprintf(w, "%-5s %12s %9s %9s %9s %8s %9s %7s\n",
		"node", "mem-acc", "mem-util", "bus-util", "dir-ent", "dirty", "log-KB", "pages")
	for _, u := range m.Utilization() {
		fmt.Fprintf(w, "%-5d %12d %8.1f%% %8.1f%% %9d %8d %9.1f %7d\n",
			u.Node, u.MemAccesses,
			100*float64(u.MemPortBusy)/float64(elapsed),
			100*float64(u.BusBusy)/float64(elapsed),
			u.DirEntries, u.DirtyLines, float64(u.LogBytes)/1024, u.PagesHomed)
	}
}
