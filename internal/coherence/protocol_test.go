package coherence

import (
	"testing"

	"revive/internal/arch"
	"revive/internal/cache"
)

func TestLocalLoadHitsAfterFill(t *testing.T) {
	c := newCluster(2)
	a := addrOnPage(1, 0, 0)
	done := c.load(0, a)
	c.run(t)
	if !*done {
		t.Fatal("load never completed")
	}
	// First toucher becomes home; line granted Exclusive (uncached MESI).
	if st, owner, _, _ := c.dirs[0].StateOf(a.Line()); st != "exclusive" || owner != 0 {
		t.Fatalf("dir state = %s owner=%d, want exclusive owner 0", st, owner)
	}
	if c.st.L2Misses != 1 || c.st.L1Misses != 1 {
		t.Fatalf("misses L1=%d L2=%d, want 1,1", c.st.L1Misses, c.st.L2Misses)
	}
	// Second load hits in L1. (The miss's replay also counted one L1 hit.)
	hits := c.st.L1Hits
	done2 := c.load(0, a)
	c.run(t)
	if !*done2 || c.st.L1Hits != hits+1 {
		t.Fatalf("second load: done=%v l1hits=%d, want %d", *done2, c.st.L1Hits, hits+1)
	}
	if c.st.L1Misses != 1 || c.st.L2Misses != 1 {
		t.Fatalf("miss counts inflated: L1=%d L2=%d, want 1,1", c.st.L1Misses, c.st.L2Misses)
	}
}

func TestStoreWritesThroughToMemoryOnFlush(t *testing.T) {
	c := newCluster(2)
	a := addrOnPage(1, 3, 8)
	c.store(0, a, 0xdeadbeef)
	c.run(t)
	// Dirty data is only in the cache.
	if got := c.memLine(a.Line()); !got.IsZero() {
		t.Fatal("memory updated before write-back")
	}
	flushed := false
	c.caches[0].FlushDirty(func() { flushed = true })
	c.run(t)
	if !flushed {
		t.Fatal("flush never completed")
	}
	if got, want := c.memLine(a.Line()), lineWith(8, 0xdeadbeef); got != want {
		t.Fatalf("memory after flush = %v, want %v", got[:16], want[:16])
	}
	// The flushed line is retained clean-exclusive.
	if l := c.caches[0].L2().Probe(a.Line()); l == nil || l.State != cache.Exclusive {
		t.Fatalf("flushed line state = %v, want retained Exclusive", l)
	}
}

func TestRemoteReadSharesLine(t *testing.T) {
	c := newCluster(2)
	a := addrOnPage(1, 0, 0)
	c.load(0, a) // node 0 becomes home and exclusive holder
	c.run(t)
	done := c.load(1, a)
	c.run(t)
	if !*done {
		t.Fatal("remote load never completed")
	}
	st, _, sharers, _ := c.dirs[0].StateOf(a.Line())
	if st != "shared" || sharers.Count() != 2 || !sharers.Has(0) || !sharers.Has(1) {
		t.Fatalf("dir = %s sharers=%v, want shared {0,1}", st, sharers)
	}
	if l := c.caches[0].L2().Probe(a.Line()); l == nil || l.State != cache.Shared {
		t.Fatal("previous owner not downgraded to Shared")
	}
}

func TestRemoteReadOfDirtyLineForwardsData(t *testing.T) {
	c := newCluster(2)
	a := addrOnPage(1, 0, 0)
	c.store(0, a, 42)
	c.run(t)
	done := c.load(1, a)
	c.run(t)
	if !*done {
		t.Fatal("remote load never completed")
	}
	// The reader received the dirty data.
	if l := c.caches[1].L2().Probe(a.Line()); l == nil || l.Data != lineWith(0, 42) {
		t.Fatal("reader did not receive dirty data")
	}
	// Sharing write-back updated memory.
	if got := c.memLine(a.Line()); got != lineWith(0, 42) {
		t.Fatal("sharing write-back did not reach memory")
	}
}

func TestRemoteWriteInvalidatesSharers(t *testing.T) {
	c := newCluster(4)
	a := addrOnPage(1, 0, 0)
	for n := 0; n < 3; n++ {
		c.load(n, a)
		c.run(t)
	}
	done := c.store(3, a, 7)
	c.run(t)
	if !*done {
		t.Fatal("store never completed")
	}
	for n := 0; n < 3; n++ {
		if c.caches[n].L2().Probe(a.Line()) != nil {
			t.Fatalf("node %d still holds an invalidated line", n)
		}
	}
	if st, owner, _, _ := c.dirs[0].StateOf(a.Line()); st != "exclusive" || owner != 3 {
		t.Fatalf("dir = %s owner=%d, want exclusive 3", st, owner)
	}
}

func TestUpgradeOnSharedLine(t *testing.T) {
	c := newCluster(2)
	a := addrOnPage(1, 0, 0)
	c.load(0, a)
	c.run(t)
	c.load(1, a) // both share now
	c.run(t)
	refs0 := c.st.NetMsgs[0]
	_ = refs0
	done := c.store(1, a, 9)
	c.run(t)
	if !*done {
		t.Fatal("upgrading store never completed")
	}
	if l := c.caches[1].L2().Probe(a.Line()); l == nil {
		t.Fatal("upgrader lost the line")
	}
	if l := c.caches[1].L1().Probe(a.Line()); l == nil || l.State != cache.Modified {
		t.Fatal("upgraded L1 line not Modified")
	}
	if c.caches[0].L2().Probe(a.Line()) != nil {
		t.Fatal("other sharer not invalidated")
	}
}

func TestWriteWriteMigration(t *testing.T) {
	c := newCluster(2)
	a := addrOnPage(1, 0, 16)
	c.store(0, a, 1)
	c.run(t)
	c.store(1, a, 2)
	c.run(t)
	// Ownership transferred cache-to-cache; node 1 holds the merged line.
	l := c.caches[1].Line(a.Line())
	if l == nil || l.State != cache.Modified {
		t.Fatal("second writer does not own the line")
	}
	if l.Data != lineWith(16, 2) {
		t.Fatalf("merged line = %v", l.Data[:24])
	}
	if c.caches[0].L2().Probe(a.Line()) != nil {
		t.Fatal("first writer still holds the line")
	}
}

func TestDirtyMigrationPreservesEarlierBytes(t *testing.T) {
	c := newCluster(2)
	a1 := addrOnPage(1, 0, 0)
	a2 := addrOnPage(1, 0, 8)
	c.store(0, a1, 0x11)
	c.run(t)
	c.store(1, a2, 0x22)
	c.run(t)
	l := c.caches[1].Line(a1.Line())
	if l == nil {
		t.Fatal("line absent at second writer")
	}
	want := lineWith(0, 0x11)
	w2 := lineWith(8, 0x22)
	for i := 8; i < 16; i++ {
		want[i] = w2[i]
	}
	if l.Data != want {
		t.Fatalf("line = %v, want both stores %v", l.Data[:16], want[:16])
	}
}

func TestEvictionWritesBackDirtyLine(t *testing.T) {
	c := newCluster(2)
	// Write one line, then stream enough conflicting lines through the
	// same L2 set to force its eviction. L2: 512 sets, 4 ways -> lines
	// congruent mod 512 conflict.
	base := addrOnPage(1, 0, 0)
	c.store(0, base, 123)
	c.run(t)
	for i := 1; i <= 8; i++ {
		// Same L2 set: stride 512 lines = 8 pages.
		c.load(0, addrOnPage(1+8*i, 0, 0))
		c.run(t)
	}
	if c.caches[0].L2().Probe(base.Line()) != nil {
		t.Fatal("line survived 8 conflicting fills in a 4-way set")
	}
	if got := c.memLine(base.Line()); got != lineWith(0, 123) {
		t.Fatalf("memory = %v, want written-back 123", got[:8])
	}
	if st, _, _, _ := c.dirs[0].StateOf(base.Line()); st != "uncached" {
		t.Fatalf("dir state after eviction = %s, want uncached", st)
	}
}

func TestCleanEvictionSendsReplacementHint(t *testing.T) {
	c := newCluster(2)
	base := addrOnPage(1, 0, 0)
	c.load(0, base) // exclusive clean
	c.run(t)
	for i := 1; i <= 8; i++ {
		c.load(0, addrOnPage(1+8*i, 0, 0))
		c.run(t)
	}
	if st, _, _, _ := c.dirs[0].StateOf(base.Line()); st != "uncached" {
		t.Fatalf("dir state after clean eviction = %s, want uncached", st)
	}
	// After the hint, a remote request is served from memory without an
	// intervention (which would panic on the absent line if forwarded).
	done := c.load(1, base)
	c.run(t)
	if !*done {
		t.Fatal("post-eviction remote load never completed")
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	// Issue more stores than the 16-entry buffer holds, all missing, one
	// at a time (the processor contract: issue after the previous done).
	c := newCluster(2)
	completions := 0
	var issue func(i int)
	issue = func(i int) {
		if i >= 24 {
			return
		}
		c.caches[0].Store(addrOnPage(1+i, 0, 0), uint64(i), func() {
			completions++
			issue(i + 1)
		})
	}
	issue(0)
	c.run(t)
	if completions != 24 {
		t.Fatalf("store completions = %d, want 24", completions)
	}
	if c.caches[0].sbLen() != 0 {
		t.Fatalf("store buffer not drained: %d entries", c.caches[0].sbLen())
	}
}

func TestManyNodesReadSameLine(t *testing.T) {
	c := newCluster(16)
	a := addrOnPage(1, 0, 0)
	for n := 0; n < 16; n++ {
		c.load(n, a)
	}
	c.run(t)
	st, _, sharers, busy := c.dirs[0].StateOf(a.Line())
	if busy {
		t.Fatal("line stuck busy")
	}
	if st != "shared" && st != "exclusive" {
		t.Fatalf("dir state = %s", st)
	}
	if st == "shared" && sharers.Count() != 16 {
		t.Fatalf("sharers = %v, want all 16 nodes", sharers)
	}
}

func TestWriteContentionAllStoresLand(t *testing.T) {
	c := newCluster(16)
	a := addrOnPage(1, 0, 0)
	for n := 0; n < 16; n++ {
		// Each node stores to its own 8-byte slot of the same line.
		c.store(n, a+arch.Addr(n*8)%64, uint64(n+1))
	}
	c.run(t)
	// Exactly one node owns the line; its copy holds all eight slots
	// written by the eight distinct offsets (offsets wrap mod 64).
	owners := 0
	for n := 0; n < 16; n++ {
		if l := c.caches[n].L2().Probe(a.Line()); l != nil && l.State.CanWrite() {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("owners = %d, want exactly 1", owners)
	}
}

func TestFirstTouchHomesPageAtFirstRequester(t *testing.T) {
	c := newCluster(4)
	a := addrOnPage(7, 0, 0)
	c.load(2, a)
	c.run(t)
	pl, ok := c.amap.Lookup(a.Page())
	if !ok || pl.Home != 2 {
		t.Fatalf("page placement = %+v, want home 2", pl)
	}
}

func TestTrackerReturnsToZero(t *testing.T) {
	c := newCluster(4)
	for i := 0; i < 50; i++ {
		node := i % 4
		if i%3 == 0 {
			c.store(node, addrOnPage(1+i%5, i%arch.LinesPerPage, 0), uint64(i))
		} else {
			c.load(node, addrOnPage(1+i%5, (i*7)%arch.LinesPerPage, 0))
		}
	}
	c.run(t) // run fails the test if tracker is nonzero
}

func TestFlushThenRemoteReadServedFromMemory(t *testing.T) {
	c := newCluster(2)
	a := addrOnPage(1, 0, 0)
	c.store(0, a, 5)
	c.run(t)
	c.caches[0].FlushDirty(func() {})
	c.run(t)
	// Remote read: the retained copy is clean-exclusive; the intervention
	// returns clean data, with no sharing write-back needed.
	wbBefore := c.st.MemAccesses[1] // ClassExeWB
	done := c.load(1, a)
	c.run(t)
	if !*done {
		t.Fatal("load never completed")
	}
	if c.st.MemAccesses[1] != wbBefore {
		t.Fatal("clean intervention caused a memory write")
	}
	if l := c.caches[1].L2().Probe(a.Line()); l == nil || l.Data != lineWith(0, 5) {
		t.Fatal("reader did not get flushed data")
	}
}

func TestConcurrentFlushAndRemoteWrite(t *testing.T) {
	c := newCluster(2)
	a := addrOnPage(1, 0, 0)
	c.store(0, a, 5)
	c.run(t)
	// Start a flush and a conflicting remote store in the same window.
	flushed := false
	c.caches[0].FlushDirty(func() { flushed = true })
	c.store(1, a, 6)
	c.run(t)
	if !flushed {
		t.Fatal("flush never completed")
	}
	// Node 1 must own the line with its store applied.
	l := c.caches[1].Line(a.Line())
	if l == nil || l.State != cache.Modified {
		t.Fatal("remote writer does not own the line after racing a flush")
	}
	want := lineWith(0, 6)
	if l.Data != want {
		t.Fatalf("line = %v, want %v", l.Data[:8], want[:8])
	}
}

func TestMemoryNeverLosesLastFlushedValue(t *testing.T) {
	// Ping-pong writes followed by flushes on both nodes: memory must end
	// with the final value.
	c := newCluster(2)
	a := addrOnPage(1, 0, 0)
	for round := 0; round < 6; round++ {
		node := round % 2
		c.store(node, a, uint64(round+1))
		c.run(t)
	}
	for n := 0; n < 2; n++ {
		c.caches[n].FlushDirty(func() {})
		c.run(t)
	}
	if got := c.memLine(a.Line()); got != lineWith(0, 6) {
		t.Fatalf("memory = %v, want final value 6", got[:8])
	}
}

func TestWBKeepDroppedWhenOwnershipMigrates(t *testing.T) {
	// A checkpoint write-back (keep=true) that arrives after an
	// intervention already moved the ownership is dropped, acked, and
	// causes no memory write — the data traveled with the intervention.
	c := newCluster(2)
	a := addrOnPage(1, 0, 0)
	c.store(0, a, 7)
	c.run(t)
	// Begin a flush on node 0 and race it with node 1's store.
	c.caches[0].FlushDirty(func() {})
	c.store(1, a, 8)
	c.run(t)
	// Either the flush won (no drop) or the store's intervention crossed
	// it (drop); both must leave a coherent machine. Tracker quiescence
	// (checked by run) plus the final owner's content verify it.
	l := c.caches[1].Line(a.Line())
	if l == nil || l.Data != lineWith(0, 8) {
		t.Fatal("final owner lost its store")
	}
}

func TestStaleProbeResponseDiscarded(t *testing.T) {
	// Force the eviction-crosses-intervention race repeatedly: node 0
	// holds lines dirty, then evicts them (write-backs in flight) while
	// node 1 requests the same lines. The home consumes the write-backs
	// as the interventions' answers and must discard the late probe-miss
	// responses rather than panic.
	c := newCluster(2)
	for round := 0; round < 5; round++ {
		base := addrOnPage(1+round, 0, 0)
		c.store(0, base, uint64(round))
		c.run(t)
		// Evict by filling the set (stride = 512 lines = 8 pages).
		for i := 1; i <= 8; i++ {
			c.load(0, addrOnPage(1+round+8*i*7, 0, 0))
		}
		// Concurrent remote access while the eviction is in flight.
		c.load(1, base)
		c.run(t)
	}
}

func TestUpgradeRaceFallsBackToReadExclusive(t *testing.T) {
	// Two sharers upgrade the same line simultaneously: the loser's
	// upgrade finds itself no longer a sharer and must be served as a
	// full read-exclusive.
	c := newCluster(4)
	a := addrOnPage(1, 0, 0)
	for n := 0; n < 4; n++ {
		c.load(n, a)
		c.run(t)
	}
	done := 0
	for n := 0; n < 4; n++ {
		c.caches[n].Store(a+arch.Addr(n*8), uint64(n+1), func() { done++ })
	}
	c.run(t)
	if done != 4 {
		t.Fatalf("stores completed = %d, want 4", done)
	}
	owners := 0
	for n := 0; n < 4; n++ {
		if l := c.caches[n].L2().Probe(a.Line()); l != nil && l.State.CanWrite() {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("owners = %d, want 1", owners)
	}
}

func TestInclusionHolds(t *testing.T) {
	// After a torrent of mixed traffic, every valid L1 line links to its
	// L2 way (the inclusion invariant back-invalidation maintains).
	c := newCluster(4)
	for i := 0; i < 400; i++ {
		n := i % 4
		a := addrOnPage(1+(i*13)%40, (i*7)%arch.LinesPerPage, 0)
		if i%3 == 0 {
			c.store(n, a, uint64(i))
		} else {
			c.load(n, a)
		}
		if i%17 == 0 {
			c.run(t)
		}
	}
	c.run(t)
	for n := 0; n < 4; n++ {
		cc := c.caches[n]
		for _, d := range c.dirs {
			d.ForEachEntry(func(e EntryView) {
				if r := cc.L1().Probe(e.Line); r != nil && r.Line != cc.L2().Probe(e.Line) {
					t.Fatalf("node %d: L1 line %#x not linked to its L2 way", n, e.Line)
				}
			})
		}
	}
}

func TestSharedLineManyWritersSerialized(t *testing.T) {
	// A migratory line hammered by all nodes: every store lands, memory
	// ends with SOME node's final value after flushes, and parity of the
	// protocol (tracker) drains.
	c := newCluster(16)
	a := addrOnPage(1, 0, 0)
	total := 0
	for round := 0; round < 8; round++ {
		for n := 0; n < 16; n++ {
			c.caches[n].Store(a, uint64(round*16+n+1), func() { total++ })
		}
		c.run(t)
	}
	if total != 8*16 {
		t.Fatalf("stores = %d, want 128", total)
	}
	for n := 0; n < 16; n++ {
		c.caches[n].FlushDirty(func() {})
	}
	c.run(t)
	if got := c.memLine(a.Line()); got.IsZero() {
		t.Fatal("memory never received any store")
	}
}

// TestStoreBufferCountsAsOutstanding: a buffered store is in-flight work.
// The checkpoint algorithm's quiescence wait relies on this — the drain
// chain advances through plain scheduled events, so if the buffer were
// invisible to the tracker a flush could begin with retirements pending
// (the store would reach memory but not the retained L2 copy).
func TestStoreBufferCountsAsOutstanding(t *testing.T) {
	c := newCluster(2)
	a := addrOnPage(1, 0, 0)
	c.store(0, a, 1)
	if c.tracker.Quiescent() {
		t.Fatal("tracker quiescent with a store still buffered")
	}
	c.run(t) // fails if the count never drains back to zero
}

// TestFlushRefusesBufferedStores: FlushDirty's precondition (no pending
// processor-side work) is now enforced, not just documented.
func TestFlushRefusesBufferedStores(t *testing.T) {
	c := newCluster(2)
	a := addrOnPage(1, 0, 0)
	c.store(0, a, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("FlushDirty accepted a non-empty store buffer")
		}
	}()
	c.caches[0].FlushDirty(func() {})
}

// Pin the hot-path wins: an L1-hit load and a store retiring into an
// already-writable line run entirely on prebound continuations and the
// reused store-buffer backing, so the cache-hit steady state allocates
// nothing.
func TestHitPathZeroAlloc(t *testing.T) {
	c := newCluster(2)
	a := addrOnPage(1, 0, 0)
	noop := func() {}
	// Warm up: take the line Modified in node 0's hierarchy, then drive
	// the clock through a full timing-wheel revolution so every bucket
	// the steady state touches has its backing array.
	c.caches[0].Store(a, 1, noop)
	c.run(t)
	for i := 0; i < 8192; i++ {
		c.caches[0].Load(a, noop)
		c.caches[0].Store(a, uint64(i), noop)
		c.engine.Run()
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		c.caches[0].Load(a, noop)
		c.engine.Run()
	}); allocs != 0 {
		t.Fatalf("L1-hit load allocates %.1f per op, want 0", allocs)
	}
	v := uint64(1)
	if allocs := testing.AllocsPerRun(1000, func() {
		v++
		c.caches[0].Store(a, v, noop)
		c.engine.Run()
	}); allocs != 0 {
		t.Fatalf("writable-line store allocates %.1f per op, want 0", allocs)
	}
}

// Pin the L2-hit path: a load or store that misses L1, hits L2 and fills
// L1 over a dirty victim folds the victim by a state change and allocates
// nothing.
func TestL2HitDirtyVictimZeroAlloc(t *testing.T) {
	c := newCluster(2)
	cc := c.caches[0]
	noop := func() {}
	// Five lines one page apart share an L1 set (64 sets) but not an L2
	// set (512 sets): visiting them round-robin misses L1 every time.
	var addrs [5]arch.Addr
	for i := range addrs {
		addrs[i] = addrOnPage(1+i, 0, 0)
		c.store(0, addrs[i], uint64(i))
		c.run(t)
	}
	i := 0
	visit := func(store bool) {
		a := addrs[i%5]
		i++
		if store {
			cc.Store(a, uint64(i), noop)
		} else {
			cc.Load(a, noop)
		}
		c.engine.Run()
	}
	// Warm up through a full timing-wheel revolution.
	for n := 0; n < 8192; n++ {
		visit(n%2 == 0)
	}
	for _, store := range []bool{false, true} {
		l2Hits := c.st.L2Hits
		if allocs := testing.AllocsPerRun(1000, func() { visit(store) }); allocs != 0 {
			t.Fatalf("L2-hit (store=%v) allocates %.1f per op, want 0", store, allocs)
		}
		dirty := 0
		for _, a := range addrs {
			if r := cc.L1().Probe(a.Line()); r != nil && r.State == cache.Modified {
				dirty++
			}
		}
		if c.st.L2Hits-l2Hits != 1001 || dirty != 4 {
			t.Fatalf("store=%v: %d L2 hits over 1001 visits, %d dirty L1 ways; want every visit an L2 hit over a dirty L1",
				store, c.st.L2Hits-l2Hits, dirty)
		}
	}
}

// TestDirTransactionZeroAlloc pins the directory's pooled records
// (DESIGN §4i): message arrivals and transaction continuations allocate
// nothing, so a warm GETS, GETX or write-back transaction allocates
// exactly one object per message it exchanges — the Deliver closure every
// cache↔directory message still carries.
func TestDirTransactionZeroAlloc(t *testing.T) {
	noop := func() {}
	flows := []struct {
		name string
		op   func(c *cluster, a arch.Addr, v uint64)
	}{
		// Node 0 takes the line back by upgrade (invalidating node 1),
		// then node 1's GETS downgrades it with a sharing write-back.
		{"GETS", func(c *cluster, a arch.Addr, v uint64) {
			c.caches[0].Store(a, v, noop)
			c.engine.Run()
			c.caches[1].Load(a, noop)
			c.engine.Run()
		}},
		// The two nodes steal the dirty line from each other.
		{"GETX", func(c *cluster, a arch.Addr, v uint64) {
			c.caches[int(v)%2].Store(a, v, noop)
			c.engine.Run()
		}},
		// Dirty the retained clean copy, then flush it: a checkpoint
		// write-back and its acknowledgment.
		{"WB", func(c *cluster, a arch.Addr, v uint64) {
			c.caches[0].Store(a, v, noop)
			c.caches[0].FlushDirty(noop)
			c.engine.Run()
		}},
	}
	for _, f := range flows {
		t.Run(f.name, func(t *testing.T) {
			c := newCluster(2)
			a := addrOnPage(1, 0, 0)
			c.store(0, a, 1) // node 0 becomes the line's home
			c.run(t)
			v := uint64(1)
			step := func() {
				v++
				f.op(c, a, v)
			}
			// Warm up through a full timing-wheel revolution.
			for i := 0; i < 8192; i++ {
				step()
			}
			msgs := c.net.Messages
			allocs := testing.AllocsPerRun(1000, step)
			perOp := float64(c.net.Messages-msgs) / 1001
			if allocs != perOp {
				t.Fatalf("%s allocates %.1f per op for %.1f messages, want one per message", f.name, allocs, perOp)
			}
			if !c.tracker.Quiescent() {
				t.Fatal("operations left in flight")
			}
		})
	}
}
