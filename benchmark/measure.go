package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// cost is the host cost of one measured call.
type cost struct {
	wallNS  int64
	allocB  uint64
	mallocs uint64
}

// cpuNS is the process's CPU time so far, user plus system, all threads.
// It reads CLOCK_PROCESS_CPUTIME_ID rather than getrusage because slices
// are often shorter than a scheduler tick, which is all getrusage resolves.
func cpuNS() int64 {
	const clockProcessCPUTime = 2
	var ts syscall.Timespec
	// With a valid clock id and pointer the call cannot fail.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// peakRSSMB is the process high-water mark; Linux reports ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) * 1024 / 1e6
}

// measure runs fn once, whole, for the layer replay. The collector is
// forced first (untimed) so a call never pays for garbage its
// predecessors left behind.
func measure(fn func() error) (cost, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return cost{
		wallNS:  wall.Nanoseconds(),
		allocB:  m1.TotalAlloc - m0.TotalAlloc,
		mallocs: m1.Mallocs - m0.Mallocs,
	}, err
}

// bestOf takes n+1 samples, discards the first as warm-up, and returns the
// fastest of the rest. Noise on a shared host only ever adds time, so the
// minimum is the estimate that repeats. sample does its own untimed
// preparation and returns what measure saw.
func bestOf(n int, sample func() (cost, error)) (cost, error) {
	if _, err := sample(); err != nil {
		return cost{}, err
	}
	var min cost
	for i := 0; i < n; i++ {
		c, err := sample()
		if err != nil {
			return cost{}, err
		}
		if i == 0 || c.wallNS < min.wallNS {
			min = c
		}
	}
	return min, nil
}

// best is bestOf for a call that needs no preparation.
func best(n int, fn func() error) (cost, error) {
	return bestOf(n, func() (cost, error) { return measure(fn) })
}

func (c cost) ms() float64      { return float64(c.wallNS) / 1e6 }
func (c cost) allocMB() float64 { return float64(c.allocB) / 1e6 }

// mbps is throughput over logical bytes in MB/s.
func (c cost) mbps(logical int64) float64 {
	return float64(logical) / 1e6 / (float64(c.wallNS) / 1e9)
}

// Slice tags other than an op's index.
const (
	tagSetup = -1 // a round's work outside its timed ops
	tagMeter = -2 // the meter's own work: forced collections, reading memstats
)

// sliceTarget is how much host time the first round lets pass before it
// cuts its event loop again.
const sliceTarget = time.Millisecond

// meter cuts a round's host time into slices at program points that fall
// in the same place every round: after chosen simulator events of the
// loops the benchmark steps itself, at every record the image store opens
// or commits, and at the edges of every timed op. Slice j therefore does
// byte-for-byte the same work in every round of a run, and what differs
// between rounds is the host's noise — bursts of neighbour interference
// that last tens to hundreds of ms and inflate whatever is running by up
// to several times. An op of 100 ms or more almost never fits between two
// bursts, so even the minimum of whole-op times over rounds carries them;
// a slice of a few ms usually finds a quiet round.
//
// Which events to cut after is decided once, by the run's first round: it
// reads the clock after every event and cuts when sliceTarget has passed,
// so thousands of cheap events share a slice and an event that captures a
// pod gets one to itself. Later rounds cut after the same events.
type meter struct {
	wall, cpu []int64 // per slice, ns
	tag       []int   // op index, tagSetup or tagMeter
	cur       int
	lastWall  time.Time
	lastCPU   int64

	steps    int
	planning bool  // this is the first round: choose cutAfter
	cutAfter []int // event numbers, ascending
	next     int   // index into cutAfter of the next cut due
}

// newMeter starts a round's first slice. like is the run's first round's
// meter; nil makes this the first round.
func newMeter(like *meter) *meter {
	m := &meter{cur: tagSetup, planning: like == nil}
	if like != nil {
		n := len(like.tag)
		m.wall, m.cpu, m.tag = make([]int64, 0, n), make([]int64, 0, n), make([]int, 0, n)
		m.cutAfter = like.cutAfter
	}
	m.lastWall, m.lastCPU = time.Now(), cpuNS()
	return m
}

// cut ends the open slice and starts the next under the same tag.
func (m *meter) cut() {
	now, cpu := time.Now(), cpuNS()
	m.wall = append(m.wall, now.Sub(m.lastWall).Nanoseconds())
	m.cpu = append(m.cpu, cpu-m.lastCPU)
	m.tag = append(m.tag, m.cur)
	m.lastWall, m.lastCPU = now, cpu
}

// enter ends the open slice and starts one under a new tag.
func (m *meter) enter(tag int) {
	m.cut()
	m.cur = tag
}

// stepped is called after every simulator event the benchmark steps.
func (m *meter) stepped() {
	m.steps++
	switch {
	case m.planning:
		if time.Since(m.lastWall) >= sliceTarget {
			m.cutAfter = append(m.cutAfter, m.steps)
			m.cut()
		}
	case m.next < len(m.cutAfter) && m.cutAfter[m.next] == m.steps:
		m.next++
		m.cut()
	}
}

// total sums one round's slices under a tag: the raw, noisy figure.
func total(values []int64, tags []int, tag int) int64 {
	var sum int64
	for j, t := range tags {
		if t == tag {
			sum += values[j]
		}
	}
	return sum
}

// sumOfMinima is the statistic every timing metric uses: rounds[r][j] is
// slice j of round r, and the result adds up, over the slices under tag,
// each slice's minimum over rounds — the time the work takes when no
// slice is disturbed. Noise on a shared host only ever adds time, so this
// is the estimate that repeats; it is a floor no single round attains.
func sumOfMinima(rounds [][]int64, tags []int, tag int) int64 {
	var sum int64
	for j, t := range tags {
		if t != tag {
			continue
		}
		min := rounds[0][j]
		for _, r := range rounds[1:] {
			if r[j] < min {
				min = r[j]
			}
		}
		sum += min
	}
	return sum
}

// median of an ascending slice.
func median[T int64 | float64](s []T) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return float64(s[n/2-1]+s[n/2]) / 2
}

// tail returns the highest percentile of an ascending slice that still has
// at least ten samples beyond it, and which percentile that is. With ten
// samples or fewer no such percentile exists and the minimum (p0) is
// returned, which says as much.
func tail(s []int64) (value float64, pct float64) {
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	i := n - 11
	if i < 0 {
		i = 0
	}
	return float64(s[i]), 100 * float64(i) / float64(n)
}
