package sim

// Ctx is the scheduling facade a model component holds instead of the
// Engine: it schedules events and reads the clock, and nothing else.
type Ctx struct {
	e *Engine
}

// Context returns a scheduling context on e. The argument is unused; it
// is kept so existing callers compile unchanged.
func (e *Engine) Context(int) *Ctx {
	return &Ctx{e: e}
}

// Engine returns the underlying engine (for resource construction).
func (c *Ctx) Engine() *Engine { return c.e }

// Now returns the current simulated time.
func (c *Ctx) Now() Time { return c.e.now }

// At schedules fn at absolute time t.
func (c *Ctx) At(t Time, fn func()) { c.e.At(t, fn) }

// After schedules fn d nanoseconds from now.
func (c *Ctx) After(d Time, fn func()) { c.e.At(c.e.now+d, fn) }
