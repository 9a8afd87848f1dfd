package netckpt

import (
	"errors"
	"fmt"

	"zapc/internal/netstack"
	"zapc/internal/sim"
)

// altOps is the interposed socket dispatch vector installed on restored
// sockets whose alternate receive queue holds data. It serves recvmsg
// from the alternate queue first, reports its data through poll, and
// reinstalls the original vector the moment the queue drains — exactly
// the three-method interposition (recvmsg, poll, release) of §5.
type altOps struct {
	orig netstack.Ops
}

func (a altOps) Recvmsg(s *netstack.Socket, dst []byte, n int, peek, oob bool) ([]byte, error) {
	if oob {
		return a.orig.Recvmsg(s, dst, n, peek, oob)
	}
	if s.AltQueueLen() > 0 {
		dst = s.ConsumeAlt(dst, n, peek)
		if s.AltQueueLen() == 0 && !peek {
			s.SwapOps(a.orig)
		}
		return dst, nil
	}
	// Depleted: uninstall so regular operation pays no overhead.
	s.SwapOps(a.orig)
	return a.orig.Recvmsg(s, dst, n, peek, oob)
}

func (a altOps) Poll(s *netstack.Socket) netstack.PollMask {
	m := a.orig.Poll(s)
	if s.AltQueueLen() > 0 {
		m |= netstack.PollIn
	}
	return m
}

func (a altOps) Release(s *netstack.Socket) {
	// Unconsumed alternate-queue data dies with the socket.
	s.SwapOps(a.orig)
	a.orig.Release(s)
}

// InstallAltQueue loads saved receive data into a socket's alternate
// queue and interposes on its dispatch vector.
func InstallAltQueue(s *netstack.Socket, data []byte) {
	if len(data) == 0 {
		return
	}
	s.LoadAltQueue(data)
	if _, already := s.CurrentOps().(altOps); !already {
		s.SwapOps(altOps{orig: s.CurrentOps()})
	}
}

// entryState tracks one schedule entry through re-establishment.
type entryState struct {
	entry        ScheduleEntry
	rec          *SocketRecord
	sock         *netstack.Socket
	established  bool
	retries      int
	retryPending bool
	// writer state: chunks still to push through the new connection
	pending  []netstack.Chunk
	restored bool
	adjusted bool // status (shutdown flags) reinstated
}

// Reconnection retry policy: a connect may be refused if the peer agent
// has not yet restored its listener (agents start within milliseconds of
// each other but not atomically). Retrying briefly is the event-driven
// analog of the paper's blocking connect call.
const (
	maxConnectRetries = 200
	connectRetryDelay = 5 * sim.Millisecond
)

// Restorer re-creates a pod's network state on a (fresh) stack per the
// manager's schedule. It is event-driven: Start issues the connects and
// arms listener callbacks; completion is signalled through the onDone
// callback once every connection is re-established and every queue
// reloaded. Two logical actors run concurrently — connections are
// initiated immediately while accepts complete as SYNs arrive — which is
// the paper's two-thread scheme that makes deadlock-free ordering
// unnecessary.
type Restorer struct {
	st         *netstack.Stack
	img        *NetImage
	plan       *EndpointPlan
	sockets    []*netstack.Socket // by slot
	entries    []*entryState
	temps      map[netstack.Port]*netstack.Socket
	onDone     func(error)
	done       bool
	inProgress bool
	rerun      bool

	// acceptFirst reproduces the strawman the paper warns against: the
	// agent serves all its accepts before issuing any connect. On cyclic
	// topologies this deadlocks — the reason ZapC uses two concurrent
	// actors instead. For the ablation only: strawman_test.go sets it.
	acceptFirst     bool
	deferredConnect []*entryState
}

// NewRestorer prepares a restore of img onto st following plan.
func NewRestorer(st *netstack.Stack, img *NetImage, plan *EndpointPlan, onDone func(error)) *Restorer {
	return &Restorer{
		st:      st,
		img:     img,
		plan:    plan,
		temps:   make(map[netstack.Port]*netstack.Socket),
		onDone:  onDone,
		sockets: make([]*netstack.Socket, len(img.Sockets)),
	}
}

// Sockets returns the restored sockets indexed by their original slot
// (for descriptor-table wiring by the standalone restart). Valid after
// completion.
func (r *Restorer) Sockets() []*netstack.Socket { return r.sockets }

// Start kicks off the restore.
func (r *Restorer) Start() {
	if err := r.createLocalSockets(); err != nil {
		r.finish(err)
		return
	}
	if err := r.startSchedule(); err != nil {
		r.finish(err)
		return
	}
	r.progress()
}

// scheduledSlots reports which slots the manager's plan re-establishes.
func (r *Restorer) scheduledSlots() map[int]bool {
	m := make(map[int]bool, len(r.plan.Entries))
	for _, e := range r.plan.Entries {
		m[e.Slot] = true
	}
	return m
}

// createLocalSockets restores sockets that need no peer coordination:
// listeners, UDP, raw sockets, and fully-closed or peer-less TCP
// connections (restored detached: remaining data then EOF), in original
// creation order.
func (r *Restorer) createLocalSockets() error {
	scheduled := r.scheduledSlots()
	for i := range r.img.Sockets {
		rec := &r.img.Sockets[i]
		switch {
		case rec.Proto == netstack.TCP && rec.State == netstack.StateEstablished && !scheduled[rec.Slot]:
			if rec.AppClosed {
				// Lingering teardown-only socket with no surviving peer:
				// its obligations die with the gone peer; drop it.
				continue
			}
			s := r.st.Socket(netstack.TCP)
			applyOpts(s, rec.Opts)
			s.RestoreDetached(rec.Local, rec.Remote)
			InstallAltQueue(s, rec.RecvData)
			s.LoadOOB(rec.OOBData)
			r.sockets[rec.Slot] = s
		case rec.Proto == netstack.TCP && rec.State == netstack.StateListening:
			s := r.st.Socket(netstack.TCP)
			applyOpts(s, rec.Opts)
			if err := s.Bind(rec.Local.Port); err != nil {
				return fmt.Errorf("restore listener %v: %w", rec.Local, err)
			}
			if err := s.Listen(rec.ListenBacklog); err != nil {
				return err
			}
			r.sockets[rec.Slot] = s
		case rec.Proto == netstack.UDP:
			s := r.st.Socket(netstack.UDP)
			applyOpts(s, rec.Opts)
			if rec.Local.Port != 0 {
				if err := s.Bind(rec.Local.Port); err != nil {
					return fmt.Errorf("restore udp %v: %w", rec.Local, err)
				}
			}
			if !rec.Remote.IsZero() {
				if err := s.Connect(rec.Remote); err != nil {
					return err
				}
			}
			s.LoadDatagrams(rec.Datagrams)
			r.sockets[rec.Slot] = s
		case rec.Proto == netstack.RAW:
			s := r.st.Socket(netstack.RAW)
			applyOpts(s, rec.Opts)
			if err := s.BindRaw(rec.RawProto); err != nil {
				return err
			}
			s.LoadDatagrams(rec.Datagrams)
			r.sockets[rec.Slot] = s
		}
	}
	// Temp listeners for accept entries whose original listener is gone.
	for _, port := range r.plan.TempListeners {
		s := r.st.Socket(netstack.TCP)
		if err := s.Bind(port); err != nil {
			return fmt.Errorf("temp listener port %d: %w", port, err)
		}
		if err := s.Listen(64); err != nil {
			return err
		}
		r.temps[port] = s
	}
	return nil
}

// startSchedule issues connects and arms accept callbacks.
func (r *Restorer) startSchedule() error {
	for i := range r.plan.Entries {
		e := r.plan.Entries[i]
		if e.Slot < 0 || e.Slot >= len(r.img.Sockets) {
			return fmt.Errorf("schedule slot %d out of range", e.Slot)
		}
		rec := &r.img.Sockets[e.Slot]
		es := &entryState{entry: e, rec: rec}
		r.entries = append(r.entries, es)

		switch e.Type {
		case EntryConnect:
			if r.acceptFirst {
				r.deferredConnect = append(r.deferredConnect, es)
				continue
			}
			s := r.st.Socket(netstack.TCP)
			if err := s.Bind(e.Local.Port); err != nil {
				return fmt.Errorf("connect-side bind %v: %w", e.Local, err)
			}
			if err := s.Connect(e.Remote); err != nil {
				return err
			}
			es.sock = s
			r.sockets[rec.Slot] = s
			if rec.State == netstack.StateConnecting {
				// The saved socket had not completed its handshake; the
				// re-issued connect reproduces that state as-is.
				es.established = true
				es.restored = true
				applyOpts(s, rec.Opts)
			} else {
				s.SetNotify(func() { r.progress() })
			}
		case EntryAccept:
			l := r.listenerFor(e.Local.Port)
			if l == nil {
				return fmt.Errorf("no listener for accept entry on port %d", e.Local.Port)
			}
			l.SetNotify(func() { r.progress() })
		}
	}
	return nil
}

// listenerFor finds the live or temporary listener on a port.
func (r *Restorer) listenerFor(port netstack.Port) *netstack.Socket {
	for i := range r.img.Sockets {
		rec := &r.img.Sockets[i]
		if rec.Proto == netstack.TCP && rec.State == netstack.StateListening &&
			rec.Local.Port == port && r.sockets[rec.Slot] != nil {
			return r.sockets[rec.Slot]
		}
	}
	return r.temps[port]
}

// progress advances every entry as far as possible; it is the common
// callback for connection events and send-queue drainage. Re-entrant
// invocations (an advance step triggering a socket notification) are
// coalesced into a rerun rather than recursing.
func (r *Restorer) progress() {
	if r.done {
		return
	}
	if r.inProgress {
		r.rerun = true
		return
	}
	r.inProgress = true
	for {
		r.rerun = false
		r.maybeIssueDeferred()
		allDone := true
		for _, es := range r.entries {
			r.advance(es)
			if r.done {
				r.inProgress = false
				return
			}
			if !es.restored || len(es.pending) > 0 || !es.adjusted {
				allDone = false
			}
		}
		if allDone {
			r.inProgress = false
			r.finish(nil)
			return
		}
		if !r.rerun {
			break
		}
	}
	r.inProgress = false
}

func (r *Restorer) advance(es *entryState) {
	// Stage 1: establishment.
	if !es.established {
		switch es.entry.Type {
		case EntryConnect:
			if es.sock == nil {
				return // deferred by the accept-first strawman
			}
			if es.sock.State() == netstack.StateEstablished {
				es.established = true
			} else if err := es.sock.Err(); err != nil {
				if errors.Is(err, netstack.ErrConnRefused) && es.retries < maxConnectRetries {
					if !es.retryPending {
						es.retryPending = true
						es.retries++
						r.st.Network().World().After(connectRetryDelay, func() { r.reconnect(es) })
					}
					return
				}
				r.finish(fmt.Errorf("reconnect %v->%v: %w", es.entry.Local, es.entry.Remote, err))
				return
			}
		case EntryAccept:
			l := r.listenerFor(es.entry.Local.Port)
			if l == nil {
				return
			}
			if child, ok := l.AcceptMatching(es.entry.Remote); ok {
				es.sock = child
				r.sockets[es.rec.Slot] = child
				es.established = true
				child.SetNotify(func() { r.progress() })
			}
		}
		if !es.established {
			return
		}
	}
	// Stage 2: one-time state restore.
	if !es.restored {
		es.restored = true
		rec := es.rec
		applyOpts(es.sock, rec.Opts)
		InstallAltQueue(es.sock, rec.RecvData)
		es.sock.LoadOOB(rec.OOBData)
		if !rec.Redirected {
			chunks := DiscardOverlap(rec.SendChunks, Overlap(rec.PCB, es.entry.PeerRcvNxt))
			es.pending = chunks
		}
		if rec.PendingAcceptOf >= 0 {
			// The application never accepted this connection: put it
			// back on its listener's queue rather than at a descriptor.
			if l := r.sockets[rec.PendingAcceptOf]; l != nil {
				l.PushAccept(es.sock)
			}
		}
	}
	// Stage 3: re-send the saved send queue through the new connection
	// with ordinary writes; the transport delivers it reliably.
	for len(es.pending) > 0 {
		c := es.pending[0]
		if c.FIN {
			es.pending = es.pending[1:]
			continue // half-close is reinstated below via RestoreShutdownState
		}
		n, err := es.sock.Send(c.Data, c.OOB)
		if err != nil {
			if errors.Is(err, netstack.ErrWouldBlock) {
				return // notify will pump again as acks free buffer space
			}
			r.finish(fmt.Errorf("send-queue restore: %w", err))
			return
		}
		if n < len(c.Data) {
			es.pending[0].Data = c.Data[n:]
			return
		}
		es.pending = es.pending[1:]
	}
	// Stage 4: status adjustment (shutdown flags), exactly once, and only
	// after the data is fully queued so the FIN sequences after it. A
	// socket the application had already released is closed again: the
	// kernel finishes delivering its tail and tears it down.
	if !es.adjusted {
		es.adjusted = true
		es.sock.RestoreShutdownState(es.rec.PeerClosed, es.rec.ShutWrite)
		if es.rec.AppClosed {
			es.sock.SetNotify(nil)
			es.sock.Close()
		}
	}
}

// reconnect replaces a refused connect-side socket and tries again.
func (r *Restorer) reconnect(es *entryState) {
	es.retryPending = false
	if r.done || es.established {
		return
	}
	s := r.st.Socket(netstack.TCP)
	if err := s.Bind(es.entry.Local.Port); err != nil {
		r.finish(fmt.Errorf("reconnect bind %v: %w", es.entry.Local, err))
		return
	}
	if err := s.Connect(es.entry.Remote); err != nil {
		r.finish(err)
		return
	}
	es.sock = s
	r.sockets[es.rec.Slot] = s
	s.SetNotify(func() { r.progress() })
	r.progress()
}

// maybeIssueDeferred releases strawman-deferred connects once every
// accept entry has been served.
func (r *Restorer) maybeIssueDeferred() {
	if !r.acceptFirst || len(r.deferredConnect) == 0 {
		return
	}
	for _, es := range r.entries {
		if es.entry.Type == EntryAccept && !es.established {
			return
		}
	}
	pending := r.deferredConnect
	r.deferredConnect = nil
	for _, es := range pending {
		s := r.st.Socket(netstack.TCP)
		if err := s.Bind(es.entry.Local.Port); err != nil {
			r.finish(fmt.Errorf("deferred connect bind %v: %w", es.entry.Local, err))
			return
		}
		if err := s.Connect(es.entry.Remote); err != nil {
			r.finish(err)
			return
		}
		es.sock = s
		r.sockets[es.rec.Slot] = s
		s.SetNotify(func() { r.progress() })
	}
}

func (r *Restorer) finish(err error) {
	if r.done {
		return
	}
	r.done = true
	for _, es := range r.entries {
		if es.sock != nil {
			es.sock.SetNotify(nil)
		}
	}
	for i := range r.img.Sockets {
		if s := r.sockets[i]; s != nil {
			s.SetNotify(nil)
		}
	}
	for _, l := range r.temps {
		l.SetNotify(nil)
		l.Close()
	}
	r.onDone(err)
}

// applyOpts replays a saved option set onto a fresh socket. The set
// names the non-zero options (SocketRecord.layout); every other option
// was zero, which is not every option's default on a fresh socket.
func applyOpts(s *netstack.Socket, opts []netstack.OptValue) {
	for _, o := range netstack.AllOpts() {
		if s.GetOpt(o) != 0 {
			s.SetOpt(o, 0)
		}
	}
	for _, ov := range opts {
		s.SetOpt(ov.Opt, ov.Val)
	}
}
