package sim

import (
	"math/rand"
	"testing"
)

// The sharded engine's whole contract is byte-identity: at any shard count,
// the execution order (and hence every downstream byte of model state) must
// equal the serial engine's. These tests drive randomized schedules through
// shard counts 1..8 with the parallel threshold floored, so small plans
// still take the parallel-round path, and demand identical orders.

// planNodes is the number of model "nodes" a plan references. Nodes map to
// shards exactly like machine.New does (n*shards/nodes), so the same plan
// is executable at any shard count.
const planNodes = 8

// shardEv is one planned event: which node owns it, when it runs (absolute
// for roots, delay-after-parent for children), and the children it spawns
// when it fires. node == -1 marks a global event (GlobalOwner context).
// The whole tree is decided up front so every run replays the same plan.
type shardEv struct {
	id   int
	node int
	at   Time
	kids []*shardEv
}

func genShardTree(rng *rand.Rand, id *int, node int, at Time, depth int) *shardEv {
	ev := &shardEv{id: *id, node: node, at: at}
	*id++
	if depth >= 2 {
		return ev
	}
	for rng.Intn(3) == 0 {
		var d Time
		switch rng.Intn(4) {
		case 0:
			d = 0 // same tick: exercises round-after-round draining
		case 1:
			d = Time(rng.Intn(16))
		case 2:
			d = Time(rng.Intn(wheelSize))
		default:
			d = Time(rng.Intn(3 * wheelSize)) // overflow heap
		}
		kid := rng.Intn(planNodes + 1) // planNodes = cross to a random node
		if kid == planNodes {
			kid = rng.Intn(planNodes)
		}
		ev.kids = append(ev.kids, genShardTree(rng, id, kid, d, depth+1))
	}
	return ev
}

func genShardPlan(rng *rand.Rand) []*shardEv {
	var roots []*shardEv
	id := 0
	n := 120 + rng.Intn(120)
	for i := 0; i < n; i++ {
		node := rng.Intn(planNodes)
		if rng.Intn(12) == 0 {
			node = -1 // a global event forces a serial boundary mid-tick
		}
		at := Time(rng.Intn(2 * wheelSize))
		if rng.Intn(4) == 0 {
			at = Time(rng.Intn(8)) // pile up early ticks into fat rounds
		}
		roots = append(roots, genShardTree(rng, &id, node, at, 0))
	}
	return roots
}

// runShardPlan executes the seed's plan at the given shard count and
// returns the observed execution order plus how many parallel rounds ran.
// Order is recorded through Ctx.Defer, which is exactly how model code
// touches shared state — inline when serial, replayed in canonical order
// after a parallel round.
func runShardPlan(seed int64, shards int) (order []int, rounds uint64) {
	rng := rand.New(rand.NewSource(seed))
	roots := genShardPlan(rng)

	e := NewEngine()
	e.EnableSharding(shards)
	e.SetParallelThreshold(2) // force parallel rounds on small spans
	defer e.Shutdown()

	gctx := e.Context(GlobalOwner)
	ctxs := make([]*Ctx, planNodes)
	for n := range ctxs {
		ctxs[n] = e.Context(n * shards / planNodes)
	}
	ctxOf := func(node int) *Ctx {
		if node < 0 {
			return gctx
		}
		return ctxs[node]
	}

	var fire func(ev *shardEv) func()
	fire = func(ev *shardEv) func() {
		ctx := ctxOf(ev.node)
		return func() {
			ctx.Defer(func() { order = append(order, ev.id) })
			for _, k := range ev.kids {
				k := k
				kctx := ctxOf(k.node)
				if kctx.Owner() == ctx.Owner() {
					// Same shard: schedule directly (an insert emission
					// inside a parallel round).
					ctx.After(k.at, fire(k))
				} else {
					// Cross-shard: the insert must go through Defer, like
					// a network delivery onto another node's context.
					at := ctx.Now() + k.at
					ctx.Defer(func() { kctx.At(at, fire(k)) })
				}
			}
		}
	}

	for _, ev := range roots {
		ctxOf(ev.node).At(ev.at, fire(ev))
	}

	// Mixed driving: bounded slices, a full drain, a quiet advance that
	// forces the RunUntil re-anchor, a late wave into the re-anchored
	// wheel, then a second wave drained tick by tick through StepTick.
	e.RunUntil(wheelSize / 2)
	e.RunUntil(2 * wheelSize)
	e.Run()
	e.RunUntil(e.Now() + 10*wheelSize)
	id := 1 << 20
	for i := 0; i < 40; i++ {
		node := rng.Intn(planNodes)
		ev := genShardTree(rng, &id, node, e.Now()+Time(rng.Intn(wheelSize)), 1)
		ctxOf(node).At(ev.at, fire(ev))
	}
	e.Run()
	for i := 0; i < 40; i++ {
		node := rng.Intn(planNodes)
		ev := genShardTree(rng, &id, node, e.Now()+Time(rng.Intn(wheelSize)), 0)
		ctxOf(node).At(ev.at, fire(ev))
	}
	for e.StepTick() {
	}
	return order, e.ParallelRounds()
}

// TestShardedEngineMatchesSerial is the sharded extension of the serial
// property test: the same randomized plan must execute in exactly the same
// order at shard counts 1 (the serial engine, pinned by the goldens),
// 2, 3, 4 and 8.
func TestShardedEngineMatchesSerial(t *testing.T) {
	var totalRounds uint64
	for seed := int64(1); seed <= 20; seed++ {
		want, _ := runShardPlan(seed, 1)
		for _, shards := range []int{2, 3, 4, 8} {
			got, rounds := runShardPlan(seed, shards)
			totalRounds += rounds
			if len(got) != len(want) {
				t.Fatalf("seed %d shards %d: executed %d events, serial %d",
					seed, shards, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d shards %d: order diverged at %d: got %v..., serial %v...",
						seed, shards, i, tail(got, i), tail(want, i))
				}
			}
		}
	}
	if totalRounds == 0 {
		t.Fatal("no parallel rounds executed: the test never took the path it exists to check")
	}
}

// TestShardedStepMatchesRun pins that the Step-based drivers (RunBudget,
// RunWhile, the chaos campaigns) see the same order on a sharded engine —
// they execute serially, which the contract says is always equivalent.
func TestShardedStepMatchesRun(t *testing.T) {
	want, _ := runShardPlanStep(7, 1)
	got, _ := runShardPlanStep(7, 4)
	if len(got) != len(want) {
		t.Fatalf("step drain: %d events at shards 4, %d at shards 1", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step drain diverged at %d", i)
		}
	}
}

func runShardPlanStep(seed int64, shards int) (order []int, steps uint64) {
	rng := rand.New(rand.NewSource(seed))
	roots := genShardPlan(rng)
	e := NewEngine()
	e.EnableSharding(shards)
	defer e.Shutdown()
	ctxs := make([]*Ctx, planNodes)
	for n := range ctxs {
		ctxs[n] = e.Context(n * shards / planNodes)
	}
	gctx := e.Context(GlobalOwner)
	var fire func(ev *shardEv) func()
	fire = func(ev *shardEv) func() {
		ctx := gctx
		if ev.node >= 0 {
			ctx = ctxs[ev.node]
		}
		return func() {
			order = append(order, ev.id)
			for _, k := range ev.kids {
				ctx.After(k.at, fire(k))
			}
		}
	}
	for _, ev := range roots {
		ctx := gctx
		if ev.node >= 0 {
			ctx = ctxs[ev.node]
		}
		ctx.At(ev.at, fire(ev))
	}
	for e.Step() {
	}
	return order, e.Steps()
}

// TestRawEngineAtPanicsDuringRound: scheduling through the raw engine from
// inside a parallel round is an ownership-discipline violation and must
// panic rather than corrupt the wheel.
func TestRawEngineAtPanicsDuringRound(t *testing.T) {
	testInRoundPanic(t, func(e *Engine, _ *Ctx) { e.At(e.Now()+1, func() {}) })
}

// TestGlobalCtxPanicsDuringRound: the global context may not schedule or
// defer from inside a parallel round (global events never run there; this
// means shard-owned code grabbed the wrong context).
func TestGlobalCtxPanicsDuringRound(t *testing.T) {
	testInRoundPanic(t, func(e *Engine, g *Ctx) { g.At(e.Now()+1, func() {}) })
	testInRoundPanic(t, func(_ *Engine, g *Ctx) { g.Defer(func() {}) })
}

// testInRoundPanic arranges a two-shard parallel round whose leader-side
// event runs bad(), and asserts the run panics. The offending event is
// placed first so it executes on the leader goroutine, where the test can
// recover.
func testInRoundPanic(t *testing.T, bad func(*Engine, *Ctx)) {
	t.Helper()
	e := NewEngine()
	e.EnableSharding(2)
	e.SetParallelThreshold(2)
	defer e.Shutdown()
	g := e.Context(GlobalOwner)
	e.Context(0).At(5, func() { bad(e, g) })
	e.Context(1).At(5, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic from in-round scheduling violation")
		}
	}()
	e.Run()
}

func TestEnableShardingPreconditions(t *testing.T) {
	expectPanic(t, "shard count 0", func() { NewEngine().EnableSharding(0) })
	expectPanic(t, "shard count 65", func() { NewEngine().EnableSharding(MaxShards + 1) })
	e := NewEngine()
	e.At(3, func() {})
	expectPanic(t, "pending events", func() { e.EnableSharding(2) })
}

func expectPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic: %s", what)
		}
	}()
	fn()
}

// TestDisableShardingWithPending: dropping to serial mid-setup (attaching a
// fault plan does this) must be legal with events already scheduled, and
// the pending events must still run in order.
func TestDisableShardingWithPending(t *testing.T) {
	e := NewEngine()
	e.EnableSharding(4)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Context(i%4).At(Time(5+i%3), func() { order = append(order, i) })
	}
	e.DisableSharding()
	if e.Shards() != 1 {
		t.Fatalf("Shards() = %d after DisableSharding", e.Shards())
	}
	e.Run()
	want := []int{0, 3, 6, 9, 1, 4, 7, 2, 5, 8} // (at, insertion) order
	if len(order) != len(want) {
		t.Fatalf("ran %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %d, want %d (%v)", i, order[i], want[i], order)
		}
	}
}

// TestShardedRunUntilReanchors: the satellite wheel-anchoring fix must hold
// on the sharded path too — after a long quiet RunUntil, a far-future event
// that lands back inside the window must fire at the right time.
func TestShardedRunUntilReanchors(t *testing.T) {
	e := NewEngine()
	e.EnableSharding(2)
	defer e.Shutdown()
	e.RunUntil(100 * wheelSize)
	fired := Time(-1)
	e.Context(1).At(e.Now()+wheelSize-1, func() { fired = e.Now() })
	e.Run()
	if want := Time(100*wheelSize + wheelSize - 1); fired != want {
		t.Fatalf("event fired at %d, want %d", fired, want)
	}
}

// A model panic inside a parallel round must reach the engine's caller,
// not kill the process from a worker goroutine: the round finishes its
// barrier and the leader re-raises the panic of the lowest position — the
// one the serial engine would have raised.
func TestParallelRoundPanicReachesCaller(t *testing.T) {
	for _, tc := range []struct {
		name   string
		panics []int // shards whose event panics, in position order
	}{
		{"worker", []int{2, 3}},
		{"leader", []int{0, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			e.EnableSharding(4)
			e.SetParallelThreshold(2)
			defer e.Shutdown()
			ran := make([]bool, 4)
			for s := 0; s < 4; s++ {
				s := s
				e.Context(s).At(5, func() {
					for _, p := range tc.panics {
						if p == s {
							panic(s)
						}
					}
					ran[s] = true
				})
			}
			got := func() (v any) {
				defer func() { v = recover() }()
				e.Run()
				return nil
			}()
			if got != tc.panics[0] {
				t.Fatalf("recovered %v, want the panic of shard %d", got, tc.panics[0])
			}
			if e.ParallelRounds() == 0 {
				t.Fatal("no parallel round ran")
			}
			for s, ok := range ran {
				if want := s != tc.panics[0] && s != tc.panics[1]; ok != want {
					t.Errorf("shard %d ran=%v, want %v", s, ok, want)
				}
			}
		})
	}
}
