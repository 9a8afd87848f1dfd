package vos

import (
	"errors"

	"zapc/internal/netstack"
	"zapc/internal/sim"
)

// Syscall errors.
var (
	ErrBadFD = errors.New("vos: bad file descriptor")
)

// Context is the system-call interface handed to a Program's Step. Every
// call is routed through the process's pod environment — identifier
// translation, time virtualization, and the thin interposition layer —
// and charged to the step's simulated cost. A Context is valid only
// during the Step it was passed to: the process owns one and hands it to
// every step.
type Context struct {
	proc  *Process
	node  *Node
	extra sim.Duration
}

// Proc returns the calling process (for memory-region manipulation).
func (c *Context) Proc() *Process { return c.proc }

// syscallCost is what one system call adds to the step's cost.
func (c *Context) syscallCost() sim.Duration {
	if c.proc.Env.Virtualized {
		return c.node.w.Costs.Syscall + VirtOverhead
	}
	return c.node.w.Costs.Syscall
}

func (c *Context) charge() { c.extra += c.syscallCost() }

// ChargeSyscalls charges n system calls without making them: exactly
// what n calls would add to the step's cost. It is for a caller that
// knows what the calls would return; mpi's receive scan is the one, for
// a repeat scan and for peers whose connection has ended (DESIGN.md
// §2.1, make boundary).
func (c *Context) ChargeSyscalls(n int) { c.extra += sim.Duration(n) * c.syscallCost() }

// Event returns the number of the simulation event the step runs in
// (sim.World.Events). A Step is one event, and every socket's receive
// side changes only inside an event, so two calls that see the same
// number see the same receive queues unless the step itself read them.
func (c *Context) Event() uint64 { return c.node.w.Events() }

// Now returns the current time as seen by the application: the real
// clock plus the pod's time bias, so that time appears continuous across
// a checkpoint/restart gap.
func (c *Context) Now() sim.Time {
	c.charge()
	return c.node.w.Now() + sim.Time(c.proc.Env.TimeBias)
}

func (c *Context) sock(fd int) (*netstack.Socket, error) {
	s, ok := c.proc.SocketFor(fd)
	if !ok {
		return nil, ErrBadFD
	}
	return s, nil
}

// Socket creates a socket of the given protocol and returns its
// descriptor.
func (c *Context) Socket(proto netstack.Proto) int {
	c.charge()
	return c.proc.openFD(c.proc.Env.Stack.Socket(proto))
}

// Bind binds a socket to a local port (0 allocates an ephemeral port).
func (c *Context) Bind(fd int, port netstack.Port) error {
	c.charge()
	s, err := c.sock(fd)
	if err != nil {
		return err
	}
	return s.Bind(port)
}

// Listen marks a TCP socket as accepting connections.
func (c *Context) Listen(fd, backlog int) error {
	c.charge()
	s, err := c.sock(fd)
	if err != nil {
		return err
	}
	return s.Listen(backlog)
}

// Connect initiates a connection; completion is observed via Poll or a
// blocked wait on PollOut.
func (c *Context) Connect(fd int, to netstack.Addr) error {
	c.charge()
	s, err := c.sock(fd)
	if err != nil {
		return err
	}
	return s.Connect(to)
}

// Accept dequeues an established connection, returning its new
// descriptor, or ErrWouldBlock.
func (c *Context) Accept(fd int) (int, error) {
	c.charge()
	s, err := c.sock(fd)
	if err != nil {
		return -1, err
	}
	child, err := s.Accept()
	if err != nil {
		return -1, err
	}
	return c.proc.openFD(child), nil
}

// Send writes stream data (oob = TCP urgent data).
func (c *Context) Send(fd int, data []byte, oob bool) (int, error) {
	c.charge()
	s, err := c.sock(fd)
	if err != nil {
		return 0, err
	}
	return s.Send(data, oob)
}

// SendTo transmits one datagram.
func (c *Context) SendTo(fd int, data []byte, to netstack.Addr) (int, error) {
	c.charge()
	s, err := c.sock(fd)
	if err != nil {
		return 0, err
	}
	return s.SendTo(data, to)
}

// Recv reads up to n bytes into a new slice (peek = MSG_PEEK, oob =
// MSG_OOB).
func (c *Context) Recv(fd, n int, peek, oob bool) ([]byte, error) {
	return c.RecvAppend(fd, nil, n, peek, oob)
}

// RecvAppend is the recvmsg system call: it appends up to n bytes to dst
// and returns the extended slice, dst itself on an error.
func (c *Context) RecvAppend(fd int, dst []byte, n int, peek, oob bool) ([]byte, error) {
	c.charge()
	s, err := c.sock(fd)
	if err != nil {
		return dst, err
	}
	return s.RecvAppend(dst, n, peek, oob)
}

// RecvFrom dequeues one datagram.
func (c *Context) RecvFrom(fd int, peek bool) (netstack.Datagram, error) {
	c.charge()
	s, err := c.sock(fd)
	if err != nil {
		return netstack.Datagram{}, err
	}
	return s.RecvFrom(peek)
}

// Shutdown half-closes a connection.
func (c *Context) Shutdown(fd int, read, write bool) error {
	c.charge()
	s, err := c.sock(fd)
	if err != nil {
		return err
	}
	return s.Shutdown(read, write)
}

// Close releases a descriptor.
func (c *Context) Close(fd int) error {
	c.charge()
	s, err := c.sock(fd)
	if err != nil {
		return err
	}
	s.SetNotify(nil)
	s.Close()
	c.proc.fds[fd] = nil
	return nil
}

// SockErr returns the pending error on a socket (SO_ERROR).
func (c *Context) SockErr(fd int) error {
	c.charge()
	s, err := c.sock(fd)
	if err != nil {
		return err
	}
	return s.Err()
}

// SockState returns the connection state of a socket.
func (c *Context) SockState(fd int) netstack.State {
	s, err := c.sock(fd)
	if err != nil {
		return netstack.StateClosed
	}
	return s.State()
}

// Step-result helpers.

// Yield returns a continue-running result charging the given CPU cost.
func Yield(cost sim.Duration) StepResult { return StepResult{Cost: cost} }

// Exit terminates the process.
func Exit(code int) StepResult { return StepResult{Exit: true, ExitCode: code} }

// Sleep parks the process for d of virtual time.
func Sleep(d sim.Duration) StepResult {
	return StepResult{Block: true, WaitTimeout: d}
}

// BlockRead parks the process until one of the descriptors is readable
// (or has an error/EOF condition).
func BlockRead(fds ...int) StepResult {
	r := StepResult{Block: true}
	for _, fd := range fds {
		r.WaitFDs = append(r.WaitFDs, FDWait{fd, netstack.PollIn | netstack.PollHUP | netstack.PollPRI})
	}
	return r
}

// BlockWrite parks the process until the descriptor is writable.
func BlockWrite(fd int) StepResult {
	return StepResult{Block: true, WaitFDs: []FDWait{{fd, netstack.PollOut | netstack.PollHUP}}}
}

// BlockConnect parks the process until a pending connect resolves.
func BlockConnect(fd int) StepResult {
	return StepResult{Block: true, WaitFDs: []FDWait{{fd, netstack.PollOut | netstack.PollErr | netstack.PollHUP}}}
}
