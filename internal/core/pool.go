package core

import "sync"

// CPUPool is the one CPU admission mechanism: every layer that fans work
// out — the selection scheduler's block-level tasks (Config.Speculate),
// the Parallel drivers' per-block search goroutines (Config.Pool), and
// the DSE sweep driver's grid tasks (internal/dse) — draws slots from a
// pool, so stacking sweep-level on block-level parallelism bounds total
// concurrency instead of multiplying it.
//
// Every holder holds exactly one slot: one serial block search. Demand
// tasks block in Acquire until a slot frees; speculative tasks take a
// slot only while the caller's number of spare slots stays free, so the
// serial demand stream is never starved by speculation. Holders must never
// block on the pool while holding a slot (no hold-and-wait), which
// keeps the pool deadlock-free by construction.
type CPUPool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	free   int
	slots  int // capacity, for leak accounting
	closed bool
}

// NewCPUPool returns a pool of the given capacity (at least 1).
func NewCPUPool(slots int) *CPUPool {
	if slots < 1 {
		slots = 1
	}
	p := &CPUPool{free: slots, slots: slots}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Acquire blocks until a slot is free and takes it, reporting true; it
// reports false without a slot once the pool is closed.
func (p *CPUPool) Acquire() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.free == 0 && !p.closed {
		p.cond.Wait()
	}
	if p.closed {
		return false
	}
	p.free--
	return true
}

// TryAcquireSpec takes one slot for a speculative task, but only while
// spare further slots remain free for demand work; it never blocks.
func (p *CPUPool) TryAcquireSpec(spare int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.free <= spare {
		return false
	}
	p.free--
	return true
}

// Release returns one slot to the pool.
func (p *CPUPool) Release() {
	p.mu.Lock()
	p.free++
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Close wakes every blocked Acquire without a slot (used on abandon). It
// cannot assert full occupancy itself: Close runs before the owner's
// wg.Wait precisely so that blocked Acquires unblock, while holders are
// still releasing their tokens via defers — leak detection is Leaked(),
// checked after every holder has exited.
func (p *CPUPool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Leaked returns the number of slots still held. Only meaningful once
// every acquirer has finished (after the owner's wg.Wait): a positive
// value then means a release was lost — e.g. a panic path that skipped
// its deferred release — and the pool would have throttled forever in a
// long-lived service.
func (p *CPUPool) Leaked() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.slots - p.free
}
