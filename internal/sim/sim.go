// Package sim provides the discrete-event simulation kernel underneath the
// ZapC reproduction: a virtual clock, a deterministic event queue, a seeded
// random source, and the calibrated hardware cost model used to convert
// byte counts and message exchanges into simulated durations.
//
// Everything in the virtual cluster — CPU scheduling, packet delivery,
// checkpoint writes — advances by scheduling events on a single World. The
// simulation is fully deterministic for a given seed and event program,
// which is what makes distributed checkpoint/restart testable: a run that
// is checkpointed and restarted must produce output identical to an
// uninterrupted run.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in simulated time, in nanoseconds since world creation.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Handy duration units (nanosecond-based, mirroring package time).
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

func (d Duration) String() string { return time.Duration(d).String() }

// String formats a simulated timestamp like a duration since t=0.
func (t Time) String() string { return time.Duration(t).String() }

// event is one scheduled callback. Events are owned by their World,
// which makes them eventSlab at a time: a fired or cancelled event goes
// back to the world's free list and is handed out again by the next
// AfterCall or Lane.Call, so the steady state of a simulation allocates
// no events at all.
type event struct {
	when Time
	seq  uint64 // tie-break so simultaneous events run in schedule order
	fn   func(any)
	arg  any
	// idx is the event's slot in the heap, queued for an event waiting
	// behind its lane's head, or -1 once fired, cancelled or free.
	idx int
	// lane is the lane the event was scheduled on, nil for a lone event;
	// prev and next link the lane's events in schedule order.
	lane       *Lane
	prev, next *event
}

// queued is the idx of a lane event behind its lane's head: live, but
// not in the heap.
const queued = -2

// EventID identifies a scheduled event so it can be cancelled (for example
// a retransmission timer that is disarmed by an arriving ACK). It is valid
// until the event fires or is cancelled and harmless afterwards: the seq
// it carries names one scheduling, so an ID that outlives its event can
// never cancel the timer that reuses the slot.
type EventID struct {
	ev  *event
	seq uint64
}

// World is a discrete-event simulation. Create one with NewWorld. A World
// is not safe for concurrent use: all activity happens inside event
// callbacks run by Run/Step on a single goroutine.
type World struct {
	now Time
	// pq is a 4-ary min-heap on (when, seq) holding the lone events and
	// the head of each non-empty lane, live events only: Cancel removes,
	// it does not mark. seq is unique, so the order is total and the pop
	// order does not depend on the heap's shape.
	pq []*event
	// zero is the lane of every event scheduled with no delay.
	zero Lane
	// live counts the scheduled events, in the heap or behind a head.
	live int
	free []*event
	// slab is the unused rest of the block alloc last carved events from.
	slab []event
	seq  uint64
	rng  *rand.Rand
	// events counts the events Step has run; see Events.
	events uint64

	// Costs is the hardware cost model used by the rest of the system.
	Costs Costs
}

// NewWorld returns a world at time zero with the given deterministic seed
// and the default 2005-era cost model.
func NewWorld(seed int64) *World {
	w := &World{rng: rand.New(rand.NewSource(seed)), Costs: DefaultCosts()}
	w.zero.w = w
	return w
}

// Now returns the current simulated time.
func (w *World) Now() Time { return w.now }

// Rand returns the world's deterministic random source.
func (w *World) Rand() *rand.Rand { return w.rng }

// heapArity is the heap's branching factor: four children per node halve
// the depth of a binary heap and keep a sift-down's comparisons in one
// cache line of pointers.
const heapArity = 4

func (a *event) before(b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// siftUp moves ev from slot i toward the root until its parent sorts
// before it.
func (w *World) siftUp(ev *event, i int) {
	for i > 0 {
		parent := (i - 1) / heapArity
		p := w.pq[parent]
		if !ev.before(p) {
			break
		}
		w.pq[i], p.idx = p, i
		i = parent
	}
	w.pq[i], ev.idx = ev, i
}

// siftDown moves ev from slot i toward the leaves until no child sorts
// before it.
func (w *World) siftDown(ev *event, i int) {
	n := len(w.pq)
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		least := first
		for c := first + 1; c < first+heapArity && c < n; c++ {
			if w.pq[c].before(w.pq[least]) {
				least = c
			}
		}
		m := w.pq[least]
		if !m.before(ev) {
			break
		}
		w.pq[i], m.idx = m, i
		i = least
	}
	w.pq[i], ev.idx = ev, i
}

// remove takes a live event out of the queue and returns it to the free
// list with its callback and argument dropped, so neither a fired nor a
// cancelled timer pins what it captured. An event behind its lane's head
// is only unlinked. A lane's head hands its heap slot to the lane's next
// event, whose key is later, so it only ever sifts down.
func (w *World) remove(ev *event) {
	i := ev.idx
	if l := ev.lane; l != nil {
		prev, next := ev.prev, ev.next
		if prev != nil {
			prev.next = next
		}
		if next != nil {
			next.prev = prev
		} else {
			l.tail = prev
		}
		ev.lane, ev.prev, ev.next = nil, nil, nil
		if i == queued {
			w.release(ev)
			return
		}
		if next != nil {
			w.siftDown(next, i)
			w.release(ev)
			return
		}
	}
	n := len(w.pq) - 1
	last := w.pq[n]
	w.pq[n] = nil
	w.pq = w.pq[:n]
	if i < n {
		if last.before(ev) {
			w.siftUp(last, i)
		} else {
			w.siftDown(last, i)
		}
	}
	w.release(ev)
}

// release returns a removed event, already unlinked from any lane, to
// the free list.
func (w *World) release(ev *event) {
	ev.fn, ev.arg, ev.idx = nil, nil, -1
	w.live--
	w.free = append(w.free, ev)
}

// eventSlab is how many events alloc carves from one allocation when the
// free list is empty.
const eventSlab = 16

// alloc takes an event from the free list, or from a slab when the list
// is empty, keyed d from now. It is the one place an event is made.
func (w *World) alloc(d Duration, fn func(any), arg any) *event {
	var ev *event
	if n := len(w.free) - 1; n >= 0 {
		ev, w.free = w.free[n], w.free[:n]
	} else {
		if len(w.slab) == 0 {
			w.slab = make([]event, eventSlab)
		}
		ev, w.slab = &w.slab[0], w.slab[1:]
	}
	ev.when, ev.seq, ev.fn, ev.arg = w.now+Time(d), w.seq, fn, arg
	w.seq++
	w.live++
	return ev
}

// push puts ev in the heap.
func (w *World) push(ev *event) {
	w.pq = append(w.pq, ev)
	w.siftUp(ev, len(w.pq)-1)
}

// AfterCall schedules fn(arg) to run d from now. Negative delays run
// "now" (but still via the queue, preserving run-to-completion
// semantics), on the world's zero-delay lane. With Lane.Call it is the
// one scheduling path: a caller on the per-event path passes a func
// bound once and its receiver as arg (a pointer in an any does not
// allocate) instead of a fresh closure per timer.
func (w *World) AfterCall(d Duration, fn func(any), arg any) EventID {
	if d <= 0 {
		return w.zero.Call(fn, arg)
	}
	ev := w.alloc(d, fn, arg)
	w.push(ev)
	return EventID{ev: ev, seq: ev.seq}
}

// Lane is a FIFO of events all scheduled the same delay ahead. Within a
// lane the clock never runs back and seq only grows, so the lane is
// sorted by (when, seq) as it is appended to, and only its head sits in
// the world's heap: the pop order is the one lone events would give, and
// an event scheduled or cancelled behind the head costs no heap
// operation. A lane is for a delay that recurs — a link's transfer time,
// a protocol timer — not one per distinct jittered delay.
type Lane struct {
	w    *World
	d    Duration
	tail *event
}

// NewLane returns a lane of w whose events all run d after their
// scheduling, clamping like AfterCall.
func (w *World) NewLane(d Duration) *Lane {
	if d < 0 {
		d = 0
	}
	return &Lane{w: w, d: d}
}

// Call schedules fn(arg) to run the lane's delay from now. The returned
// ID cancels it like any other.
func (l *Lane) Call(fn func(any), arg any) EventID {
	w := l.w
	ev := w.alloc(l.d, fn, arg)
	ev.lane = l
	if t := l.tail; t != nil {
		t.next, ev.prev, ev.idx = ev, t, queued
	} else {
		w.push(ev)
	}
	l.tail = ev
	return EventID{ev: ev, seq: ev.seq}
}

// callFunc runs an After callback, which rides its event as the argument
// (a func value in an any does not allocate).
func callFunc(f any) { f.(func())() }

// After schedules fn to run d from now, clamping like AfterCall.
func (w *World) After(d Duration, fn func()) EventID {
	return w.AfterCall(d, callFunc, fn)
}

// Cancel removes a scheduled event from the queue and releases its
// callback at once: a cancelled long timer (a 30 s watchdog, say) pins
// nothing and occupies no slot for the rest of its virtual lifetime.
// Cancelling an already-fired or already-cancelled event is a no-op,
// also when the event has since been recycled into another timer.
func (w *World) Cancel(id EventID) {
	if ev := id.ev; ev != nil && ev.seq == id.seq && ev.idx != -1 {
		w.remove(ev)
	}
}

// Step runs the next pending event, advancing the clock. It reports false
// when the queue is empty.
func (w *World) Step() bool {
	if len(w.pq) == 0 {
		return false
	}
	ev := w.pq[0]
	if ev.when > w.now {
		w.now = ev.when
	}
	fn, arg := ev.fn, ev.arg
	w.remove(ev)
	w.events++
	fn(arg)
	return true
}

// Events returns the number of events Step has run, the one running
// included: inside an event it names that event, uniquely across the
// world, and outside any it names the last one run (zero before the
// first).
func (w *World) Events() uint64 { return w.events }

// Run executes events until the queue drains.
func (w *World) Run() {
	for w.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline if it has not yet passed it.
func (w *World) RunUntil(deadline Time) {
	for len(w.pq) > 0 && w.pq[0].when <= deadline {
		w.Step()
	}
	if w.now < deadline {
		w.now = deadline
	}
}

// RunWhile executes events while cond() holds and events remain.
func (w *World) RunWhile(cond func() bool) {
	for cond() && w.Step() {
	}
}

// Pending reports the number of scheduled events, those waiting behind a
// lane's head included.
func (w *World) Pending() int { return w.live }

// Jitter returns d scaled by a uniform factor in [1-frac, 1+frac], using
// the world's deterministic randomness. It is used to model run-to-run
// variation in checkpoint times (the paper reports 10-60% stddev).
func (w *World) Jitter(d Duration, frac float64) Duration {
	if frac <= 0 {
		return d
	}
	f := 1 + frac*(2*w.rng.Float64()-1)
	return Duration(float64(d) * f)
}

// Costs is the calibrated hardware cost model. The defaults approximate the
// paper's testbed: an IBM HS20 BladeCenter with dual 3.06 GHz Xeons,
// Gigabit Ethernet, and a Fibre Channel SAN (2005-era parts). All
// conversions from work to simulated time flow through this struct so that
// experiments can perturb a single knob.
type Costs struct {
	// MemBandwidth is the rate at which a checkpoint image is written to
	// (or serialized from) memory, bytes per second.
	MemBandwidth float64
	// RestoreBandwidth is the rate at which an image is reinstated into a
	// fresh pod. Restores run slower than saves (allocation, page faults).
	RestoreBandwidth float64
	// DiskBandwidth models the shared SAN, bytes/second (used only when a
	// checkpoint is flushed to storage, which the paper excludes from the
	// reported checkpoint time).
	DiskBandwidth float64
	// NetLatency is the one-way wire+switch latency of a LAN hop.
	NetLatency Duration
	// NetBandwidth is the link rate in bytes/second (GbE ~ 125 MB/s).
	NetBandwidth float64
	// CtrlLatency is the one-way latency of a Manager<->Agent control
	// message (TCP over the same LAN, including protocol stack overhead).
	CtrlLatency Duration
	// CtrlPerMsg is the sender-side occupancy of queuing one control
	// message: a coordinator pushing k messages back to back delivers
	// the i-th one i*CtrlPerMsg later. Zero (the default) makes a
	// flat broadcast latency-only; scaling experiments set it non-zero
	// to expose the flat coordinator's O(N) serialization bottleneck
	// that the coordination tree removes.
	CtrlPerMsg Duration
	// Syscall is the cost of one virtualized system call.
	Syscall Duration
	// SignalDeliver is the cost of delivering one signal to one process.
	SignalDeliver Duration
	// FilterRule is the cost of installing/removing one netfilter rule.
	FilterRule Duration
	// SockOptRead is the cost of one getsockopt/setsockopt round.
	SockOptRead Duration
	// ConnSetup is the agent-side cost of re-establishing one connection
	// during restart (socket creation, schedule bookkeeping, kernel
	// connect/accept), excluding the network RTT which the simulation
	// pays for real.
	ConnSetup Duration
	// ProcCreate is the cost of creating one process in a fresh pod during
	// restart (fork+exec-equivalent plus namespace wiring).
	ProcCreate Duration
	// PodCreate is the cost of instantiating an empty pod (namespace,
	// filesystem view).
	PodCreate Duration
	// CheckpointFixed is per-agent fixed overhead of a checkpoint
	// (quiescing the pod, walking kernel tables, writing headers).
	CheckpointFixed Duration
	// PrecopyRoundFixed is the fixed overhead of one live pre-copy round
	// after the base snapshot: re-walking the dirty bitmap and emitting a
	// delta record header, all while the pod keeps running.
	PrecopyRoundFixed Duration
	// PrecopyResidualFixed is the fixed overhead of the quiesced residual
	// capture that ends a pre-copy checkpoint. It is far smaller than
	// CheckpointFixed because the kernel-table walk happened during the
	// live rounds; only the final dirty-set scan and header runs inside
	// the suspend window.
	PrecopyResidualFixed Duration
	// RestartFixed is the per-agent fixed overhead of a restart.
	RestartFixed Duration
	// StoreReadBandwidth models pulling checkpoint state *back* from the
	// shared store on the recovery path, bytes/second over the logical
	// image mass (the same basis as every other image cost). It is far
	// below DiskBandwidth: a failover reads cold data through the
	// commodity shared-storage fabric under contention (every surviving
	// node re-reads at once) and pays seek, decode, and verification per
	// record, where the flush side streams sequentially into the array's
	// write cache. Checkpoint-time validation read-back is NOT charged
	// at this rate — it re-reads data still resident in the array cache,
	// overlapped with the running job, off every critical path.
	StoreReadBandwidth float64
	// PromoteFixed is the per-pod fixed overhead of activating a warm
	// standby shadow (rebinding the VIP and reattaching the netstack to
	// state already resident in memory) — the warm counterpart of
	// RestartFixed, minus everything a cold restore pays for.
	PromoteFixed Duration
	// ImageCostScale multiplies checkpoint-image byte counts before they
	// are converted to time or wire transfer. Experiments that shrink
	// application memory by a Scale factor set this to 1/Scale so the
	// simulated times reflect paper-scale images while the host only
	// copies the scaled-down bytes.
	ImageCostScale float64
}

// EffImageBytes applies ImageCostScale to an image byte count.
func (c Costs) EffImageBytes(b int64) int64 {
	if c.ImageCostScale <= 0 {
		return b
	}
	return int64(float64(b) * c.ImageCostScale)
}

// DefaultCosts returns the calibrated 2005-era model.
func DefaultCosts() Costs {
	return Costs{
		MemBandwidth:     1.6e9, // ~1.6 GB/s memcpy on 2005 Xeon
		RestoreBandwidth: 0.9e9, // restores fault pages in
		DiskBandwidth:    150e6, // FC SAN
		NetLatency:       60 * Microsecond,
		NetBandwidth:     125e6, // GbE
		CtrlLatency:      150 * Microsecond,
		Syscall:          2 * Microsecond,
		SignalDeliver:    4 * Microsecond,
		FilterRule:       8 * Microsecond,
		SockOptRead:      2 * Microsecond,
		ConnSetup:        2 * Millisecond,
		ProcCreate:       900 * Microsecond,
		PodCreate:        6 * Millisecond,
		CheckpointFixed:  80 * Millisecond,
		// One dirty-bitmap walk + delta header per live round; the final
		// residual adds the quiesced scan. Both are an order of magnitude
		// below CheckpointFixed — that gap is the downtime win pre-copy
		// buys.
		PrecopyRoundFixed:    3 * Millisecond,
		PrecopyResidualFixed: 8 * Millisecond,
		RestartFixed:         180 * Millisecond,
		StoreReadBandwidth:   25e6, // cold shared-store read-back under failover contention (2005 NFS/SAN class)
		PromoteFixed:         2 * Millisecond,
	}
}

// MemCopyTime converts a byte count into simulated serialization time.
func (c Costs) MemCopyTime(bytes int64) Duration {
	return Duration(float64(bytes) / c.MemBandwidth * 1e9)
}

// RestoreTime converts a byte count into simulated restore time.
func (c Costs) RestoreTime(bytes int64) Duration {
	return Duration(float64(bytes) / c.RestoreBandwidth * 1e9)
}

// NetTransferTime is the serialization (bandwidth) component of sending n
// bytes on a LAN link, excluding propagation latency. It takes a pointer
// because every packet calls it: a value receiver copies all of Costs.
func (c *Costs) NetTransferTime(bytes int64) Duration {
	return Duration(float64(bytes) / c.NetBandwidth * 1e9)
}

// DiskTime converts a byte count into simulated SAN write time.
func (c Costs) DiskTime(bytes int64) Duration {
	return Duration(float64(bytes) / c.DiskBandwidth * 1e9)
}

// StoreReadTime converts a byte count into simulated recovery-path
// store read-back time. Costs built by hand (not via DefaultCosts) may
// leave the bandwidth zero; they read back for free, matching the
// pre-StoreReadBandwidth model.
func (c Costs) StoreReadTime(bytes int64) Duration {
	if c.StoreReadBandwidth <= 0 {
		return 0
	}
	return Duration(float64(bytes) / c.StoreReadBandwidth * 1e9)
}

func (c Costs) String() string {
	return fmt.Sprintf("Costs{mem=%.1fGB/s net=%.0fMB/s lat=%v}",
		c.MemBandwidth/1e9, c.NetBandwidth/1e6, c.NetLatency)
}
