// Package vos implements the virtual operating system of the ZapC
// reproduction: cluster nodes with CPUs, processes, PIDs, signals, file
// descriptor tables, memory regions, and timers.
//
// Processes are cooperative step machines: a Program's Step method runs
// one burst of work against the syscall Context and reports how much
// virtual CPU it consumed and whether the process blocks or exits. All
// program state is explicit data declared once by the Program's Layout, which
// is the substitution this reproduction makes for OS-level capture of
// process memory and registers (a Go runtime cannot freeze and serialize
// goroutine stacks): a SIGSTOP parks a virtual process at a step
// boundary exactly as Zap stops a real process at a kernel entry, and
// the checkpoint code path — enumerate, freeze, serialize, restore,
// remap identifiers — is preserved.
package vos

import (
	"fmt"

	"zapc/internal/imgfmt"
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
//
// That state is declared once, by Layout, which is all a program writes
// to be checkpointable: one line per field, in wire order,
//
//	p.Phase = imgfmt.Int(v, 1, p.Phase)
//	p.Buf = v.Bytes(2, p.Buf)
//
// handing the visitor the field's tag and current value and keeping what
// comes back. A checkpoint walks Layout with a writing visitor to save
// the program; a restart re-instantiates the program from its Kind and
// walks the same Layout with a reading one, which refuses any field out
// of order, unknown or left over. A layout must not be able to tell the
// two apart: no field may be visited conditionally on anything but
// fields visited before it, and a value about to size or index something
// is vetted first (Visitor.Check). A saving walk stores back what it was
// handed, and the processes of a pod are saved concurrently, so a
// program's state is memory no other process holds.
type Program interface {
	// Step runs one burst of work.
	Step(ctx *Context) StepResult
	// Kind returns the registry tag used to re-instantiate the program
	// at restart.
	Kind() string
	// Layout declares the program's entire state to v (the intermediate
	// format keeps it portable across nodes).
	Layout(v imgfmt.Visitor)
}

// Env is the execution environment a pod gives its member processes:
// the namespace through which every syscall is routed. Base (non-pod)
// processes get an Env with Virtualized=false and a node-level stack.
type Env struct {
	Stack *netstack.Stack
	// TimeBias is added to the real clock by virtualized time queries;
	// restart sets it so that application-visible time is continuous
	// across the checkpoint gap.
	TimeBias sim.Duration
	// Virtualized marks pod membership: syscalls pay VirtOverhead and
	// PIDs resolve to virtual PIDs.
	Virtualized bool
}

// VirtOverhead is what a pod adds to each system call: the thin
// virtualization layer (system-call interposition through a loadable
// kernel module), which the paper measures as negligible against
// application runtime.
const VirtOverhead = 150 * sim.Nanosecond

// Memory region of a process. Data holds real bytes so checkpoint image
// sizes are genuine. The bytes belong to vos: a checkpoint image may hold
// the same backing array as the process (ShareMemory, SetSharedRegion),
// and WriteRegion is the only call that hands them out for writing. So
// the backing array is the region's version: a region written since an
// image was captured no longer has the array that image holds.
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

	// fds is the descriptor table, indexed by fd; a closed slot is nil.
	// Descriptors are not reused: a new one is len(fds).
	fds []*netstack.Socket

	mem []Region
	// shared marks the regions some checkpoint image also holds: the
	// process may read them but swaps in a private copy before writing.
	// There is no reference count, so the mark outlives the image: a
	// region written after its image was dropped pays one needless copy.
	shared map[string]bool

	// Blocking state.
	waitFDs []FDWait
	waitEv  sim.EventID // the wait's timeout; stale once fired or cancelled

	exitCode int
	queued   bool
	cpuTime  sim.Duration

	// Scheduler scratch, so a step makes no garbage: the one Context
	// every Step of this process is handed, the result of the step
	// whose cost window is open, and the wait-queue callback block
	// installs on each waited socket.
	ctx       Context
	res       StepResult
	onFDEvent func()
}

// Status returns the scheduler state.
func (p *Process) Status() Status { return p.status }

// Stopped reports whether the process is SIGSTOPped.
func (p *Process) Stopped() bool { return p.stopped }

// CPUTime returns the virtual CPU time consumed so far.
func (p *Process) CPUTime() sim.Duration { return p.cpuTime }

// Node returns the hosting node.
func (p *Process) Node() *Node { return p.node }

// FDs returns the open descriptors in ascending order.
func (p *Process) FDs() []int {
	out := make([]int, 0, len(p.fds))
	for fd, s := range p.fds {
		if s != nil {
			out = append(out, fd)
		}
	}
	return out
}

// SocketFor returns the socket behind a descriptor.
func (p *Process) SocketFor(fd int) (*netstack.Socket, bool) {
	if uint(fd) >= uint(len(p.fds)) || p.fds[fd] == nil {
		return nil, false
	}
	return p.fds[fd], true
}

// MaxFD bounds the descriptors a restart installs, as Linux's nr_open
// bounds a process's table: an image naming a larger one is refused
// rather than sizing the table from it.
const MaxFD = 1 << 20

// InstallFD wires a restored socket into the descriptor table at a
// specific slot (restart path).
func (p *Process) InstallFD(fd int, s *netstack.Socket) error {
	if fd < 0 || fd >= MaxFD {
		return fmt.Errorf("%w: %d outside [0, %d)", ErrBadFD, fd, MaxFD)
	}
	for len(p.fds) <= fd {
		p.fds = append(p.fds, nil)
	}
	p.fds[fd] = s
	return nil
}

// openFD puts s in a new descriptor slot at the end of the table.
func (p *Process) openFD(s *netstack.Socket) int {
	p.fds = append(p.fds, s)
	return len(p.fds) - 1
}

// ShareMemory returns the region table for a checkpoint image to keep
// and marks every region shared: the image aliases the process's bytes
// (the table itself is a copy, DropRegion shifts p.mem in place), and
// the process copies a region only if it goes on to write it. Captures
// of distinct processes may run concurrently.
func (p *Process) ShareMemory() []Region {
	if p.shared == nil {
		p.shared = make(map[string]bool, len(p.mem))
	}
	for _, r := range p.mem {
		p.shared[r.Name] = true
	}
	return append([]Region(nil), p.mem...)
}

// Regions returns the process's region table, in table order, for
// reading: it marks nothing shared, and neither the table nor the bytes
// may be written through it.
func (p *Process) Regions() []Region { return p.mem }

// SetRegion creates or replaces a named memory region. The caller's
// slice becomes the region, private to the process. A new backing array
// is a write: the next incremental checkpoint carries the region. Setting
// the backing array the region already has is not one, whatever was
// written through the slice meanwhile.
func (p *Process) SetRegion(name string, data []byte) {
	p.setRegion(name, data, false)
}

// SetSharedRegion is SetRegion for bytes a checkpoint image or another
// process also holds (the restart path, an application's common
// ballast): the region is shared from birth, so the other holders never
// see a change and every process copies on its own first write.
func (p *Process) SetSharedRegion(name string, data []byte) {
	p.setRegion(name, data, true)
}

func (p *Process) setRegion(name string, data []byte, shared bool) {
	if shared {
		if p.shared == nil {
			p.shared = make(map[string]bool)
		}
		p.shared[name] = true
	} else {
		delete(p.shared, name)
	}
	for i := range p.mem {
		if p.mem[i].Name == name {
			p.mem[i].Data = data
			return
		}
	}
	p.mem = append(p.mem, Region{Name: name, Data: data})
}

// WriteRegion returns an existing region's bytes for writing in place.
// It is the MMU of the simulation: a region whose bytes a checkpoint
// image also holds is first replaced by a private copy, so no image ever
// sees the write, and the new backing array is what tells the next
// incremental or pre-copy checkpoint that the region changed. The slice
// is valid for writing only inside the Step that asked for it — captures
// happen between steps, and a slice kept across steps is the one way to
// write a shared page. Asking for a region that does not exist is a
// programming error and is reported rather than silently creating one.
func (p *Process) WriteRegion(name string) ([]byte, error) {
	for i := range p.mem {
		if p.mem[i].Name != name {
			continue
		}
		if p.shared[name] {
			p.mem[i].Data = append([]byte(nil), p.mem[i].Data...)
			delete(p.shared, name)
		}
		return p.mem[i].Data, nil
	}
	return nil, fmt.Errorf("vos: write to nonexistent region %q in pid %d", name, p.VPID)
}

// Region returns a named memory region's data for reading. Writing
// through it is the simulation's equivalent of bypassing the MMU: the
// write keeps the backing array, so no incremental checkpoint sees it,
// and it alters every checkpoint image that shares the bytes.
// WriteRegion is the call for writing.
func (p *Process) Region(name string) ([]byte, bool) {
	for i := range p.mem {
		if p.mem[i].Name == name {
			return p.mem[i].Data, true
		}
	}
	return nil, false
}

// DropRegion removes a named region and its shared mark.
func (p *Process) DropRegion(name string) {
	for i := range p.mem {
		if p.mem[i].Name == name {
			p.mem = append(p.mem[:i], p.mem[i+1:]...)
			delete(p.shared, name)
			return
		}
	}
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
	for _, s := range p.fds {
		if s != nil {
			s.SetNotify(nil)
			s.Close()
		}
	}
	clear(p.fds)
	p.node.procExited(p)
}

func (p *Process) clearWaits() {
	for _, wfd := range p.waitFDs {
		if s, ok := p.SocketFor(wfd.FD); ok {
			s.SetNotify(nil)
		}
	}
	p.waitFDs = nil
	p.node.w.Cancel(p.waitEv) // a no-op on a fired or zero EventID
}
