package revive

import (
	"runtime"
	"testing"
)

// fftAllocBudget is the heap-object ceiling of one 16-node Quick FFT run
// under the default backend: the count measured with the protocol
// sequences on pooled records (DESIGN §4i), plus 10%. The closure-per-step
// design it replaced made 2.13 million allocations here, so a new per-event
// closure on the hot path turns this test red instead of costing an
// unnoticed 10%.
const fftAllocBudget = 346563

// TestFFTAllocBudget counts the heap objects a whole simulated run
// allocates (runtime.MemStats.Mallocs around Run).
func TestFFTAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	o := Options{Quick: true}
	app, ok := AppByName("FFT", o)
	if !ok {
		t.Fatal("no FFT application")
	}
	m := New(EvalConfig(o))
	m.Load(app)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.Run()
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("%d heap objects, %.1f MB allocated", mallocs, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	if mallocs > fftAllocBudget {
		t.Fatalf("Quick FFT run allocated %d heap objects, budget %d", mallocs, fftAllocBudget)
	}
}
