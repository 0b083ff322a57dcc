package machine

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"revive/internal/arch"
)

// verifiedMachine runs a small ReVive machine to completion and checks
// that it starts out consistent.
func verifiedMachine(t *testing.T) *Machine {
	t.Helper()
	m := New(smallConfig(true))
	m.Load(testProfile(20000))
	m.Run()
	if err := m.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	return m
}

// zeroStripeParityLine finds a parity line whose whole stripe (the parity
// line and every data line it protects) is zero.
func zeroStripeParityLine(t *testing.T, m *Machine) arch.PhysLine {
	t.Helper()
	for n := 0; n < m.Cfg.Nodes; n++ {
		pn := arch.NodeID(n)
		for f := arch.Frame(0); f < m.AMap.FramesUsed(pn); f++ {
			if !m.Topo.IsParityFrame(pn, f) {
				continue
			}
			used := m.Mems[pn].Present(f)
			for _, q := range m.Topo.DataLinesOf(arch.PhysLine{Node: pn, Frame: f}) {
				used |= m.Mems[q.Node].Present(f)
			}
			if used != ^uint64(0) {
				return arch.PhysLine{Node: pn, Frame: f, Off: uint8(bits.TrailingZeros64(^used))}
			}
		}
	}
	t.Fatal("no all-zero stripe line in the machine")
	return arch.PhysLine{}
}

func TestVerifyParityCatchesCorruptParityInZeroStripe(t *testing.T) {
	m := verifiedMachine(t)
	p := zeroStripeParityLine(t, m)
	var bad arch.Data
	bad[0] = 0x5a
	m.Mems[p.Node].Poke(p.MemAddr(), bad)
	err := m.VerifyParity()
	if err == nil {
		t.Fatalf("corrupted parity line %v in an all-zero stripe not detected", p)
	}
	if want := fmt.Sprintf("parity mismatch at %v: parity has 5a", p); !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error = %q, want prefix %q", err, want)
	}
}

func TestVerifyParityCatchesCorruptDataLine(t *testing.T) {
	m := verifiedMachine(t)
	p := zeroStripeParityLine(t, m)
	d := m.Topo.DataLinesOf(p)[0]
	var bad arch.Data
	bad[3] = 0x80
	m.Mems[d.Node].Poke(d.MemAddr(), bad)
	err := m.VerifyParity()
	if want := fmt.Sprintf("parity mismatch at %v: parity has 00", p); err == nil ||
		!strings.HasPrefix(err.Error(), want) {
		t.Fatalf("corrupted data line %v: error = %v, want prefix %q", d, err, want)
	}
}

func TestVerifyAgainstSnapshotReportsSingleLine(t *testing.T) {
	m := verifiedMachine(t)
	snap := &Snapshot{Epoch: m.Ckpt.Epoch()}
	for _, mm := range m.Mems {
		snap.Mems = append(snap.Mems, mm.Image())
	}
	if err := m.VerifyAgainstSnapshot(snap); err != nil {
		t.Fatalf("memory differs from its own image: %v", err)
	}
	logFrames := map[arch.Frame]bool{}
	for _, f := range m.Ctrls[1].Log().AllFrames() {
		logFrames[f] = true
	}
	const node = arch.NodeID(1)
	for f := arch.Frame(0); f < m.AMap.FramesUsed(node); f++ {
		if m.Topo.IsParityFrame(node, f) || logFrames[f] {
			continue
		}
		d := arch.PhysLine{Node: node, Frame: f, Off: 37}
		orig := m.Mems[node].Peek(d.MemAddr())
		line := orig
		line[0] ^= 0xff
		m.Mems[node].Poke(d.MemAddr(), line)
		want := fmt.Sprintf("node 1 frame %d off 37: got %x want %x", f, line[:8], orig[:8])
		if err := m.VerifyAgainstSnapshot(snap); err == nil || err.Error() != want {
			t.Fatalf("error = %v, want %q", err, want)
		}
		return
	}
	t.Fatal("no data frame on node 1")
}
