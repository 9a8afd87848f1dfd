// Package pod implements the pod (PrOcess Domain) abstraction from Zap
// that ZapC builds on: a self-contained virtual execution environment
// with a private namespace that decouples its member processes from the
// host node.
//
// A pod owns a virtual network stack (its constant virtual IP is
// transparently remapped to wherever the pod currently runs), assigns
// stable virtual PIDs that survive migration even when the destination
// node hands out different real PIDs, and biases application-visible
// time so that timeouts behave across a checkpoint/restart gap. The pod
// is the minimal unit of checkpointing and migration: a distributed
// application running on N nodes is a set of pods, ideally one per
// application endpoint, which is what lets ZapC restart on M != N nodes.
package pod

import (
	"cmp"
	"fmt"
	"slices"

	"zapc/internal/memfs"
	"zapc/internal/netstack"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// Pod is one process domain.
type Pod struct {
	name    string
	node    *vos.Node
	network *netstack.Network
	stack   *netstack.Stack
	env     *vos.Env
	// procs holds the member processes in virtual-PID order. A slice
	// Procs has handed out is never written again: an insert past the
	// end appends, and any other change builds a new slice.
	procs     []*vos.Process
	nextVPID  vos.PID
	vip       netstack.IP
	destroyed bool
	frozen    bool
	frozenAt  sim.Time
}

// DefaultVirtOverhead is the per-syscall cost of the thin virtualization
// layer (system-call interposition through a loadable kernel module).
// The paper measures it as negligible against application runtime.
const DefaultVirtOverhead = 150 * sim.Nanosecond

// New creates an empty pod on the given node with the given constant
// virtual IP, attaching a fresh network stack to the cluster network.
func New(name string, node *vos.Node, nw *netstack.Network, fs *memfs.FS, vip netstack.IP) (*Pod, error) {
	st, err := nw.NewStack(vip)
	if err != nil {
		return nil, fmt.Errorf("pod %s: %w", name, err)
	}
	return &Pod{
		name:    name,
		node:    node,
		network: nw,
		stack:   st,
		env: &vos.Env{
			Stack:        st,
			FS:           fs,
			Virtualized:  true,
			VirtOverhead: DefaultVirtOverhead,
		},
		nextVPID: 1,
		vip:      vip,
	}, nil
}

// Name returns the pod's name.
func (p *Pod) Name() string { return p.name }

// Node returns the hosting node.
func (p *Pod) Node() *vos.Node { return p.node }

// Stack returns the pod's private network stack.
func (p *Pod) Stack() *netstack.Stack { return p.stack }

// VirtualIP returns the pod's constant virtual address.
func (p *Pod) VirtualIP() netstack.IP { return p.vip }

// Destroyed reports whether the pod has been torn down.
func (p *Pod) Destroyed() bool { return p.destroyed }

// AddProcess spawns a program inside the pod, assigning the next virtual
// PID. Names within a pod are assigned the way a traditional OS assigns
// them, but localized to the pod.
func (p *Pod) AddProcess(prog vos.Program) *vos.Process {
	proc := p.node.Spawn(prog, p.env)
	if proc == nil {
		return nil
	}
	proc.VPID = p.nextVPID
	p.nextVPID++
	p.insert(proc)
	return proc
}

// AddRestoredProcess spawns a stopped process with an explicit virtual
// PID (the restart path preserves VPIDs from the checkpoint image, even
// though the node will generally assign a different real PID).
func (p *Pod) AddRestoredProcess(prog vos.Program, vpid vos.PID) (*vos.Process, error) {
	if _, taken := p.Lookup(vpid); taken {
		return nil, fmt.Errorf("pod %s: vpid %d already in use", p.name, vpid)
	}
	proc := p.node.SpawnStopped(prog, p.env)
	if proc == nil {
		return nil, fmt.Errorf("pod %s: node %s refused spawn", p.name, p.node.Name())
	}
	proc.VPID = vpid
	p.insert(proc)
	if vpid >= p.nextVPID {
		p.nextVPID = vpid + 1
	}
	return proc, nil
}

// search returns the slot of vpid in the process table, or where it
// would be inserted.
func (p *Pod) search(vpid vos.PID) (int, bool) {
	return slices.BinarySearchFunc(p.procs, vpid, func(proc *vos.Process, vpid vos.PID) int {
		return cmp.Compare(proc.VPID, vpid)
	})
}

// insert adds proc to the process table in virtual-PID order. VPIDs only
// grow, so that is an append unless a restore brings an older one.
func (p *Pod) insert(proc *vos.Process) {
	i, _ := p.search(proc.VPID)
	if i == len(p.procs) {
		p.procs = append(p.procs, proc)
		return
	}
	p.procs = slices.Insert(slices.Clip(p.procs), i, proc)
}

// Lookup resolves a virtual PID.
func (p *Pod) Lookup(vpid vos.PID) (*vos.Process, bool) {
	if i, ok := p.search(vpid); ok {
		return p.procs[i], true
	}
	return nil, false
}

// Procs returns member processes in virtual-PID order, dropping exited
// ones from the table as a side effect. The slice is the table itself,
// capped at its length: the caller must not write it, and it does not
// change when the table does.
func (p *Pod) Procs() []*vos.Process {
	if slices.ContainsFunc(p.procs, exited) {
		p.procs = slices.DeleteFunc(slices.Clone(p.procs), exited)
	}
	return slices.Clip(p.procs)
}

func exited(proc *vos.Process) bool { return proc.Status() == vos.StatusExited }

// Suspend sends SIGSTOP to every member process (checkpoint step 1) and
// freezes the pod's virtual clock at the suspension instant: the
// application never observes time passing while stopped, so a
// checkpoint image stamps the quiesce instant rather than whenever the
// coordinator got around to the capture step. That makes image bytes a
// pure function of the frozen pod state, independent of control-plane
// latency (and so identical across coordination topologies).
func (p *Pod) Suspend() {
	if !p.frozen {
		p.frozenAt = p.VirtualNow()
		p.frozen = true
	}
	for _, proc := range p.Procs() {
		proc.Signal(vos.SIGSTOP)
	}
}

// Resume sends SIGCONT to every member process (snapshot continuation)
// and unfreezes the virtual clock.
func (p *Pod) Resume() {
	p.frozen = false
	for _, proc := range p.Procs() {
		proc.Signal(vos.SIGCONT)
	}
}

// Quiescent reports whether every member process is unable to run — the
// condition the checkpoint agent needs before saving state.
func (p *Pod) Quiescent() bool {
	for _, proc := range p.Procs() {
		if !proc.Quiescent() {
			return false
		}
	}
	return true
}

// BlockNetwork installs the netfilter rule freezing all pod traffic.
func (p *Pod) BlockNetwork() { p.stack.Filter().BlockAll() }

// UnblockNetwork removes the freeze rule.
func (p *Pod) UnblockNetwork() { p.stack.Filter().UnblockAll() }

// NetworkBlocked reports whether the pod's traffic is frozen.
func (p *Pod) NetworkBlocked() bool { return p.stack.Filter().Blocked() }

// VirtualNow returns the application-visible time inside the pod. While
// the pod is suspended it holds at the suspension instant (see
// Suspend).
func (p *Pod) VirtualNow() sim.Time {
	if p.frozen {
		return p.frozenAt
	}
	return p.node.World().Now() + sim.Time(p.env.TimeBias)
}

// SetTimeBias adjusts the pod's clock so application-visible time equals
// virtualNow (restart sets it to the virtual time recorded at
// checkpoint, hiding the gap from application timeout logic).
func (p *Pod) SetTimeBias(virtualNow sim.Time) {
	p.env.TimeBias = sim.Duration(virtualNow - p.node.World().Now())
}

// Destroy tears the pod down: members are detached from the node and the
// stack leaves the network (migration after a successful checkpoint, or
// abort cleanup).
func (p *Pod) Destroy() {
	if p.destroyed {
		return
	}
	p.destroyed = true
	for _, proc := range p.Procs() {
		p.node.Remove(proc)
	}
	p.procs = nil
	p.network.Detach(p.stack)
}
