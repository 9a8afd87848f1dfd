package vos

import (
	"sort"

	"zapc/internal/netstack"
	"zapc/internal/sim"
)

// minStepCost prevents zero-cost busy loops from freezing virtual time.
const minStepCost = 200 * sim.Nanosecond

// Node is one physical cluster machine: a set of CPUs scheduling the
// processes hosted on it (across all its pods).
type Node struct {
	w       *sim.World
	name    string
	cpus    int
	running int
	runq    []*Process
	procs   map[PID]*Process
	nextPID PID
	failed  bool
}

// NewNode creates a node with the given CPU count.
func NewNode(w *sim.World, name string, cpus int) *Node {
	if cpus < 1 {
		cpus = 1
	}
	return &Node{
		w:       w,
		name:    name,
		cpus:    cpus,
		procs:   make(map[PID]*Process),
		nextPID: 1000,
	}
}

// Name returns the node's host name.
func (n *Node) Name() string { return n.name }

// CPUs returns the CPU count.
func (n *Node) CPUs() int { return n.cpus }

// World returns the simulation world.
func (n *Node) World() *sim.World { return n.w }

// Failed reports whether the node has been crashed by failure injection.
func (n *Node) Failed() bool { return n.failed }

// Fail crashes the node: every hosted process dies instantly, emulating
// a hardware fault the cluster recovers from by restarting the last
// checkpoint elsewhere.
func (n *Node) Fail() {
	n.failed = true
	for _, p := range n.Procs() {
		p.exit(255)
	}
	n.runq = nil
}

// Procs returns the node's live processes in real-PID order.
func (n *Node) Procs() []*Process {
	pids := make([]int, 0, len(n.procs))
	for pid := range n.procs {
		pids = append(pids, int(pid))
	}
	sort.Ints(pids)
	out := make([]*Process, 0, len(pids))
	for _, pid := range pids {
		out = append(out, n.procs[PID(pid)])
	}
	return out
}

// Spawn creates a process running prog in the given environment and
// makes it runnable. The real PID is freshly allocated — a restarted
// process will generally receive a different one, which is why pods
// expose stable virtual PIDs instead.
func (n *Node) Spawn(prog Program, env *Env) *Process {
	if n.failed {
		return nil
	}
	p := &Process{
		node:   n,
		RPID:   n.nextPID,
		Prog:   prog,
		Env:    env,
		status: StatusReady,
	}
	p.ctx = Context{proc: p, node: n}
	p.onFDEvent = func() { n.recheckBlocked(p) }
	n.nextPID++
	n.procs[p.RPID] = p
	n.enqueue(p)
	return p
}

// SpawnStopped creates a process in the stopped state (the restart path
// builds the whole pod before letting anything run).
func (n *Node) SpawnStopped(prog Program, env *Env) *Process {
	p := n.Spawn(prog, env)
	if p != nil {
		p.stopped = true
	}
	return p
}

func (n *Node) procExited(p *Process) {
	delete(n.procs, p.RPID)
	// Lazy removal from the run queue: the dispatcher skips exited
	// processes.
}

// Remove detaches a live process from the node without running exit
// hooks (used when a pod is destroyed after a migration checkpoint: the
// process state has been saved; its sockets die with the pod's stack).
func (n *Node) Remove(p *Process) {
	p.clearWaits()
	p.status = StatusExited
	delete(n.procs, p.RPID)
}

// enqueue makes p runnable if it is eligible and not already queued.
func (n *Node) enqueue(p *Process) {
	if p.status != StatusReady || p.stopped || p.queued || n.failed {
		return
	}
	p.queued = true
	n.runq = append(n.runq, p)
	n.dispatch()
}

// dispatch assigns idle CPUs to queued processes. Execution is deferred
// through the event queue so that a Step never runs nested inside
// another event callback (e.g. a socket notification).
func (n *Node) dispatch() {
	for n.running < n.cpus && len(n.runq) > 0 {
		p := n.runq[0]
		// Copy down rather than reslice: the queue is a few processes
		// long and keeps its backing array.
		last := copy(n.runq, n.runq[1:])
		n.runq[last] = nil
		n.runq = n.runq[:last]
		p.queued = false
		if p.status != StatusReady || p.stopped {
			continue
		}
		n.running++
		n.w.AfterCall(0, executeProc, p)
	}
}

// The scheduler's three timers carry the process as the event's
// argument: a process never changes node, so nothing is bound per call.
func executeProc(p any)  { p.(*Process).node.execute(p.(*Process)) }
func completeProc(p any) { p.(*Process).node.complete(p.(*Process)) }
func wakeProc(p any)     { p.(*Process).node.wake(p.(*Process)) }

func (n *Node) execute(p *Process) {
	if n.failed || p.status != StatusReady || p.stopped {
		n.running--
		n.dispatch()
		return
	}
	p.status = StatusRunning
	p.ctx.extra = 0
	p.res = p.Prog.Step(&p.ctx)
	cost := p.res.Cost + p.ctx.extra
	if cost < minStepCost {
		cost = minStepCost
	}
	p.cpuTime += cost
	n.w.AfterCall(cost, completeProc, p)
}

// complete ends the cost window of the step whose result p.res holds.
func (n *Node) complete(p *Process) {
	n.running--
	defer n.dispatch()
	if n.failed || p.status == StatusExited {
		return
	}
	switch {
	case p.res.Exit:
		p.exit(p.res.ExitCode)
	case p.res.Block:
		n.block(p)
	default:
		p.status = StatusReady
		n.enqueue(p)
	}
}

// block parks a process on the wait set of its step's result, unless a
// waited condition already holds (the readiness may have changed during
// the step's cost window).
func (n *Node) block(p *Process) {
	res := &p.res
	p.status = StatusBlocked
	p.waitFDs = res.WaitFDs
	if n.waitSatisfied(p) {
		p.waitFDs = nil
		p.status = StatusReady
		n.enqueue(p)
		return
	}
	for _, wfd := range res.WaitFDs {
		if s, ok := p.SocketFor(wfd.FD); ok {
			s.SetNotify(p.onFDEvent)
		}
	}
	if res.WaitTimeout > 0 {
		p.hasTimer = true
		p.deadline = n.w.Now() + sim.Time(res.WaitTimeout)
		p.waitEv = n.w.AfterCall(res.WaitTimeout, wakeProc, p)
	} else if len(res.WaitFDs) == 0 {
		// Blocking on nothing would hang forever; treat as yield.
		p.status = StatusReady
		n.enqueue(p)
	}
}

// waitSatisfied reports whether any waited FD is ready per its mask (a
// pending socket error always counts as ready, as poll(2) does).
func (n *Node) waitSatisfied(p *Process) bool {
	for _, wfd := range p.waitFDs {
		s, ok := p.SocketFor(wfd.FD)
		if !ok {
			return true // descriptor vanished: wake to observe EBADF
		}
		m := s.Poll()
		if m&wfd.Mask != 0 || m&netstack.PollErr != 0 {
			return true
		}
	}
	return false
}

// recheckBlocked is the wait-queue callback: wake the process if its
// condition now holds.
func (n *Node) recheckBlocked(p *Process) {
	if p.status != StatusBlocked {
		return
	}
	if n.waitSatisfied(p) {
		n.wake(p)
	}
}

func (n *Node) wake(p *Process) {
	if p.status != StatusBlocked {
		return
	}
	p.clearWaits()
	p.status = StatusReady
	n.enqueue(p)
}
