// Package vos implements the virtual operating system of the ZapC
// reproduction: cluster nodes with CPUs, processes, PIDs, signals, file
// descriptor tables, memory regions, and timers.
//
// Processes are cooperative step machines: a Program's Step method runs
// one burst of work against the syscall Context and reports how much
// virtual CPU it consumed and whether the process blocks or exits. All
// program state is explicit data serialized through Save/Restore, which
// is the substitution this reproduction makes for OS-level capture of
// process memory and registers (a Go runtime cannot freeze and serialize
// goroutine stacks): a SIGSTOP parks a virtual process at a step
// boundary exactly as Zap stops a real process at a kernel entry, and
// the checkpoint code path — enumerate, freeze, serialize, restore,
// remap identifiers — is preserved.
package vos

import (
	"fmt"
	"sort"

	"zapc/internal/imgfmt"
	"zapc/internal/memfs"
	"zapc/internal/netstack"
	"zapc/internal/sim"
)

// PID identifies a process. Real PIDs are node-scoped; virtual PIDs are
// pod-scoped and preserved across migration.
type PID int

// Status is a process's scheduler state.
type Status int

// Process states. Stopped (SIGSTOP) is a separate flag that gates
// scheduling orthogonally to Ready/Blocked.
const (
	StatusReady Status = iota
	StatusRunning
	StatusBlocked
	StatusExited
)

func (s Status) String() string {
	switch s {
	case StatusReady:
		return "ready"
	case StatusRunning:
		return "running"
	case StatusBlocked:
		return "blocked"
	case StatusExited:
		return "exited"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Signal numbers (the subset the checkpoint system uses).
type Signal int

// Supported signals.
const (
	SIGSTOP Signal = 19
	SIGCONT Signal = 18
	SIGKILL Signal = 9
)

// FDWait names one file descriptor and the readiness events a blocked
// process is waiting for.
type FDWait struct {
	FD   int
	Mask netstack.PollMask
}

// StepResult is what a Program's Step reports back to the scheduler.
type StepResult struct {
	// Cost is the virtual CPU time consumed by this step (syscall costs
	// are added automatically by the Context).
	Cost sim.Duration
	// Block, when true, parks the process until one of the waited FDs
	// becomes ready (per its mask) or the timeout fires.
	Block bool
	// WaitFDs lists descriptors to wait on when blocking.
	WaitFDs []FDWait
	// WaitTimeout, when nonzero, wakes the process after this duration
	// even if no FD fires (pure sleep when WaitFDs is empty).
	WaitTimeout sim.Duration
	// Exit terminates the process with ExitCode.
	Exit     bool
	ExitCode int
}

// Program is the application code of a virtual process. Step must be
// written re-entrantly: after a wake-up (or a restart on another node)
// it is invoked again and must resume from its own explicit state.
type Program interface {
	// Step runs one burst of work.
	Step(ctx *Context) StepResult
	// Save serializes the program's entire state into the checkpoint
	// image (the intermediate format keeps it portable across nodes).
	Save(enc *imgfmt.Encoder) error
	// Restore reinstates state saved by Save.
	Restore(dec *imgfmt.Decoder) error
	// Kind returns the registry tag used to re-instantiate the program
	// at restart.
	Kind() string
}

// Env is the execution environment a pod gives its member processes:
// the namespace through which every syscall is routed. Base (non-pod)
// processes get an Env with Virtualized=false and a node-level stack.
type Env struct {
	Stack *netstack.Stack
	FS    *memfs.FS
	// TimeBias is added to the real clock by virtualized time queries;
	// restart sets it so that application-visible time is continuous
	// across the checkpoint gap.
	TimeBias sim.Duration
	// Virtualized marks pod membership: syscalls pay the thin
	// interposition overhead and PIDs resolve to virtual PIDs.
	Virtualized bool
	// VirtOverhead is the per-syscall cost of the virtualization layer.
	VirtOverhead sim.Duration
}

// Memory region of a process. Data holds real bytes so checkpoint image
// sizes are genuine.
type Region struct {
	Name string
	Data []byte
}

// Process is one virtual process.
type Process struct {
	node *Node
	// RPID is the node-level (real) PID; it changes when a process is
	// restarted on another node, which is exactly why pods expose
	// virtual PIDs.
	RPID PID
	// VPID is the pod-scoped virtual PID (0 outside a pod).
	VPID PID
	Prog Program
	Env  *Env

	status  Status
	stopped bool

	fds    map[int]*netstack.Socket
	nextFD int

	mem []Region
	// Dirty-region tracking for incremental checkpoints: memClock ticks
	// on every region write and memVer records, per region, the clock
	// value of its last write. A checkpoint generation records the clock
	// as its watermark; the next generation only serializes regions whose
	// version exceeds it.
	memClock uint64
	memVer   map[string]uint64

	// Blocking state.
	waitFDs  []FDWait
	waitEv   sim.EventID
	deadline sim.Time // wake deadline; 0 when none
	hasTimer bool

	exitCode int
	queued   bool
	cpuTime  sim.Duration
}

// Status returns the scheduler state.
func (p *Process) Status() Status { return p.status }

// Stopped reports whether the process is SIGSTOPped.
func (p *Process) Stopped() bool { return p.stopped }

// ExitCode returns the exit code of an exited process.
func (p *Process) ExitCode() int { return p.exitCode }

// CPUTime returns the virtual CPU time consumed so far.
func (p *Process) CPUTime() sim.Duration { return p.cpuTime }

// Node returns the hosting node.
func (p *Process) Node() *Node { return p.node }

// FDs returns the open descriptors in ascending order.
func (p *Process) FDs() []int {
	out := make([]int, 0, len(p.fds))
	for fd := range p.fds {
		out = append(out, fd)
	}
	sort.Ints(out)
	return out
}

// SocketFor returns the socket behind a descriptor.
func (p *Process) SocketFor(fd int) (*netstack.Socket, bool) {
	s, ok := p.fds[fd]
	return s, ok
}

// InstallFD wires a restored socket into the descriptor table at a
// specific slot (restart path).
func (p *Process) InstallFD(fd int, s *netstack.Socket) {
	p.fds[fd] = s
	if fd >= p.nextFD {
		p.nextFD = fd + 1
	}
}

// Memory returns the process's memory regions.
func (p *Process) Memory() []Region { return p.mem }

// MemoryBytes reports the total size of all regions.
func (p *Process) MemoryBytes() int64 {
	var n int64
	for _, r := range p.mem {
		n += int64(len(r.Data))
	}
	return n
}

// SetRegion creates or replaces a named memory region, marking it dirty
// for incremental checkpointing.
func (p *Process) SetRegion(name string, data []byte) {
	p.markDirty(name)
	for i := range p.mem {
		if p.mem[i].Name == name {
			p.mem[i].Data = data
			return
		}
	}
	p.mem = append(p.mem, Region{Name: name, Data: data})
}

// markDirty advances the write clock and stamps the region, creating the
// version entry if needed (SetRegion calls it before the region exists).
func (p *Process) markDirty(name string) {
	if p.memVer == nil {
		p.memVer = make(map[string]uint64)
	}
	p.memClock++
	p.memVer[name] = p.memClock
}

// TouchRegion marks an existing region dirty without replacing its
// backing slice (programs that mutate region bytes in place call this so
// incremental and pre-copy checkpoints re-serialize the region). Touching
// a region that does not exist is a programming error and is reported
// rather than silently creating a phantom version entry.
func (p *Process) TouchRegion(name string) error {
	if _, ok := p.Region(name); !ok {
		return fmt.Errorf("vos: touch of nonexistent region %q in pid %d", name, p.VPID)
	}
	p.markDirty(name)
	return nil
}

// MemClock returns the process's region-write clock. A checkpoint
// records it as the watermark against which the next incremental
// generation computes dirty regions.
func (p *Process) MemClock() uint64 { return p.memClock }

// RegionVersion returns the clock value of a region's last write (0 if
// the region has never been written through the tracked API).
func (p *Process) RegionVersion(name string) uint64 { return p.memVer[name] }

// DirtyRegions returns the regions written after the given watermark, in
// table order.
func (p *Process) DirtyRegions(since uint64) []Region {
	var out []Region
	for _, r := range p.mem {
		if p.memVer[r.Name] > since {
			out = append(out, r)
		}
	}
	return out
}

// DirtyBytes reports the total size of the regions written after the
// given watermark — the quantity the pre-copy coordinator's convergence
// check compares against its threshold.
func (p *Process) DirtyBytes(since uint64) int64 {
	var n int64
	for _, r := range p.mem {
		if p.memVer[r.Name] > since {
			n += int64(len(r.Data))
		}
	}
	return n
}

// Region returns a named memory region's data.
func (p *Process) Region(name string) ([]byte, bool) {
	for i := range p.mem {
		if p.mem[i].Name == name {
			return p.mem[i].Data, true
		}
	}
	return nil, false
}

// DropRegion removes a named region.
func (p *Process) DropRegion(name string) {
	for i := range p.mem {
		if p.mem[i].Name == name {
			p.mem = append(p.mem[:i], p.mem[i+1:]...)
			return
		}
	}
}

// Deadline returns the absolute wake deadline if the process is blocked
// with a timeout.
func (p *Process) Deadline() (sim.Time, bool) { return p.deadline, p.hasTimer }

// WaitSet returns the FD waits of a blocked process.
func (p *Process) WaitSet() []FDWait {
	return append([]FDWait(nil), p.waitFDs...)
}

// Signal delivers a signal to the process.
func (p *Process) Signal(sig Signal) {
	if p.status == StatusExited {
		return
	}
	switch sig {
	case SIGSTOP:
		p.stopped = true
		// A ready process is pulled from the run queue lazily: the
		// scheduler skips stopped processes. A running step completes
		// first (checkpoint waits for quiescence).
	case SIGCONT:
		if !p.stopped {
			return
		}
		p.stopped = false
		if p.status == StatusReady {
			p.node.enqueue(p)
		}
		if p.status == StatusBlocked {
			// Re-check conditions; they may have changed while stopped.
			p.node.recheckBlocked(p)
		}
	case SIGKILL:
		p.exit(137)
	}
}

// Quiescent reports whether the process cannot run (stopped, blocked, or
// exited) — the condition the checkpoint agent waits for after SIGSTOP.
func (p *Process) Quiescent() bool {
	if p.status == StatusExited {
		return true
	}
	return p.stopped && p.status != StatusRunning
}

func (p *Process) exit(code int) {
	if p.status == StatusExited {
		return
	}
	p.status = StatusExited
	p.exitCode = code
	p.clearWaits()
	for _, fd := range p.FDs() {
		s := p.fds[fd]
		s.SetNotify(nil)
		s.Close()
	}
	p.fds = map[int]*netstack.Socket{}
	p.node.procExited(p)
}

func (p *Process) clearWaits() {
	for _, wfd := range p.waitFDs {
		if s, ok := p.fds[wfd.FD]; ok {
			s.SetNotify(nil)
		}
	}
	p.waitFDs = nil
	if p.hasTimer {
		p.node.w.Cancel(p.waitEv)
		p.hasTimer = false
		p.deadline = 0
	}
}
