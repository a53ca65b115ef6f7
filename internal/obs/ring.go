package obs

import (
	"sort"
	"sync"
	"time"
)

// Ring is a fixed-capacity single-writer flight-recorder buffer. When
// full it drops the oldest events (a flight recorder keeps the end of
// the story, not the beginning) and counts what it dropped.
//
// A Ring is deliberately not synchronized: each ring has exactly one
// writer goroutine for its whole life, and the Recorder only reads it
// back after the search has completed — every caller already has a
// happens-before edge (WaitGroup.Wait, channel receive, or plain
// sequential code) between the last Emit and Merge. Keeping atomics out
// of Emit is what makes the enabled path a couple of stores.
type Ring struct {
	id   int32
	buf  []Event
	mask uint64
	// n is the count of events ever emitted; buf[n&mask] is the next
	// write slot, so once n exceeds len(buf) the ring holds the newest
	// len(buf) events and n-len(buf) have been dropped.
	n uint64
	// epoch mirrors the owning Recorder's epoch so Emit needs no
	// indirection.
	epoch time.Time
	// span is stamped onto every emitted event: each ring serves exactly
	// one (block search, searcher goroutine) pair, so binding the span once at
	// Probe.Attach keeps the hot Emit path to one extra store.
	span int64
}

// Emit appends an event, overwriting the oldest when the ring is full.
func (r *Ring) Emit(k Kind, tag string, a, b, c int64) {
	e := &r.buf[r.n&r.mask]
	e.T = int64(time.Since(r.epoch))
	e.Ring = r.id
	e.Kind = k
	e.Span = r.span
	e.A, e.B, e.C = a, b, c
	e.Tag = tag
	r.n++
}

// Len returns the number of events currently held.
func (r *Ring) Len() int {
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Dropped returns how many events were overwritten before being read.
func (r *Ring) Dropped() uint64 {
	if r.n <= uint64(len(r.buf)) {
		return 0
	}
	return r.n - uint64(len(r.buf))
}

// snapshot appends the ring's live events to dst in emission order.
func (r *Ring) snapshot(dst []Event) []Event {
	n := uint64(r.Len())
	for i := r.n - n; i < r.n; i++ {
		dst = append(dst, r.buf[i&r.mask])
	}
	return dst
}

// Recorder owns the flight-recorder rings of one run. Searcher
// goroutines acquire private rings via NewRing (not a hot path);
// coordinator-side events that can come from any goroutine (scheduler
// speculation, rescues, collapses, search start/end) go through the
// mutex-guarded Sys ring — they are rare enough that a lock is fine.
type Recorder struct {
	epoch time.Time

	mu    sync.Mutex
	rings []*Ring
	sys   *Ring
	cap   int
}

// DefaultRingCap is the per-ring event capacity used when NewRecorder is
// given a non-positive capacity: 64k events ≈ 4 MiB per searcher.
const DefaultRingCap = 1 << 16

// NewRecorder creates a recorder whose rings each hold capacity events
// (rounded up to a power of two; DefaultRingCap if <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	c := 1
	for c < capacity {
		c <<= 1
	}
	rec := &Recorder{epoch: time.Now(), cap: c}
	rec.sys = rec.newRingLocked() // ring 0
	return rec
}

func (rec *Recorder) newRingLocked() *Ring {
	r := &Ring{
		id:    int32(len(rec.rings)),
		buf:   make([]Event, rec.cap),
		mask:  uint64(rec.cap - 1),
		epoch: rec.epoch,
	}
	rec.rings = append(rec.rings, r)
	return r
}

// NewRing allocates a private single-writer ring. Call once per searcher
// goroutine, never per event.
func (rec *Recorder) NewRing() *Ring {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.newRingLocked()
}

// Sys records a coordinator-side event on the shared ring 0. Safe from
// any goroutine.
func (rec *Recorder) Sys(k Kind, tag string, a, b, c int64) {
	rec.SysSpan(0, k, tag, a, b, c)
}

// SysSpan is Sys with an explicit causal-span ID. The shared sys ring
// has many writers under the recorder mutex, so the span cannot be
// bound to the ring as searcher rings do — it is stamped per event.
func (rec *Recorder) SysSpan(span int64, k Kind, tag string, a, b, c int64) {
	rec.mu.Lock()
	rec.sys.span = span
	rec.sys.Emit(k, tag, a, b, c)
	rec.sys.span = 0
	rec.mu.Unlock()
}

// Dropped returns the total events dropped across all rings.
func (rec *Recorder) Dropped() uint64 {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var d uint64
	for _, r := range rec.rings {
		d += r.Dropped()
	}
	return d
}

// Merge collects every ring into one timeline ordered by timestamp
// (ties broken by ring id, then emission order, so the result is
// deterministic for a fixed set of recorded events). Call after the
// searches being observed have completed.
func (rec *Recorder) Merge() []Event {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var all []Event
	for _, r := range rec.rings {
		all = r.snapshot(all)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].T != all[j].T {
			return all[i].T < all[j].T
		}
		return all[i].Ring < all[j].Ring
	})
	return all
}
