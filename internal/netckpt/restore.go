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

// stage is where one schedule entry stands in its re-establishment.
// Every entry ends in adjusted; the restore is done when all have.
type stage int

const (
	// waiting: an accept entry for its peer's SYN, a connect entry for
	// the accept-first strawman's gate (only the ablation sets it).
	waiting   stage = iota
	dialing         // connect issued, handshake in flight
	redialing       // refused; dial runs again after connectRetryDelay
	sending         // state restored, saved send queue being written
	adjusted        // shutdown flags reinstated: nothing left to do
)

// entryState tracks one schedule entry through re-establishment.
type entryState struct {
	entry   ScheduleEntry
	rec     *SocketRecord
	sock    *netstack.Socket
	stage   stage
	retries int
	// pending holds the saved send-queue chunks still to be written
	// through the new connection while the entry is sending.
	pending []netstack.Chunk
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
//
// Each schedule entry is one stage machine (waiting → dialing ⇄
// redialing → sending → adjusted, DESIGN.md §13) that progress advances
// on every socket event; dial is the one place a TCP connect is issued,
// for the start, every redial after a refusal, and the strawman's gate.
// onDone is nil once finish has run.
type Restorer struct {
	st      *netstack.Stack
	img     *NetImage
	plan    *EndpointPlan
	sockets []*netstack.Socket // by slot
	entries []*entryState
	// listeners holds the live and temporary listeners by port, as
	// restored; temps are the temporary ones in creation order, which
	// finish closes.
	listeners  map[netstack.Port]*netstack.Socket
	temps      []*netstack.Socket
	notify     func() // progress, bound once for every socket
	onDone     func(error)
	inProgress bool
	rerun      bool

	// acceptFirst reproduces the strawman the paper warns against: the
	// agent serves all its accepts before issuing any connect. On cyclic
	// topologies this deadlocks — the reason ZapC uses two concurrent
	// actors instead. For the ablation only: strawman_test.go sets it.
	acceptFirst bool
}

// NewRestorer prepares a restore of img onto st following plan.
func NewRestorer(st *netstack.Stack, img *NetImage, plan *EndpointPlan, onDone func(error)) *Restorer {
	r := &Restorer{
		st:        st,
		img:       img,
		plan:      plan,
		listeners: make(map[netstack.Port]*netstack.Socket),
		onDone:    onDone,
		sockets:   make([]*netstack.Socket, len(img.Sockets)),
	}
	r.notify = r.progress
	return r
}

// Sockets returns the restored sockets indexed by their original slot
// (for descriptor-table wiring by the standalone restart). Valid after
// completion.
func (r *Restorer) Sockets() []*netstack.Socket { return r.sockets }

// Start kicks off the restore.
func (r *Restorer) Start() {
	if err := r.start(); err != nil {
		r.finish(err)
		return
	}
	r.progress()
}

// start restores the sockets that need no peer, then issues the connects
// and arms the accepts in schedule order.
func (r *Restorer) start() error {
	for _, e := range r.plan.Entries {
		if e.Slot < 0 || e.Slot >= len(r.img.Sockets) {
			return fmt.Errorf("schedule slot %d out of range", e.Slot)
		}
		r.entries = append(r.entries, &entryState{entry: e, rec: &r.img.Sockets[e.Slot]})
	}
	if err := r.createLocalSockets(); err != nil {
		return err
	}
	for _, es := range r.entries {
		switch {
		case es.entry.Type == EntryAccept:
			l := r.listeners[es.entry.Local.Port]
			if l == nil {
				return fmt.Errorf("no listener for accept entry on port %d", es.entry.Local.Port)
			}
			l.SetNotify(r.notify)
		case !r.acceptFirst:
			if err := r.dial(es); err != nil {
				return err
			}
		}
	}
	return nil
}

// createLocalSockets restores sockets that need no peer coordination:
// listeners, UDP, raw sockets, and fully-closed or peer-less TCP
// connections (restored detached: remaining data then EOF), in original
// creation order, then the temporary listeners.
func (r *Restorer) createLocalSockets() error {
	scheduled := make([]bool, len(r.img.Sockets))
	for _, es := range r.entries {
		scheduled[es.rec.Slot] = true
	}
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
			r.listeners[rec.Local.Port] = s
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
		r.listeners[port] = s
		r.temps = append(r.temps, s)
	}
	return nil
}

// dial issues a connect entry's connect on a fresh socket bound to its
// saved local port: at the start, after each refusal, and when the
// strawman's gate opens. A socket saved mid-handshake is reproduced
// as-is by the re-issued connect, so it skips straight to sending with
// nothing to send.
func (r *Restorer) dial(es *entryState) error {
	s := r.st.Socket(netstack.TCP)
	if err := s.Bind(es.entry.Local.Port); err != nil {
		what := "connect-side"
		if es.stage == redialing {
			what = "reconnect"
		}
		return fmt.Errorf("%s bind %v: %w", what, es.entry.Local, err)
	}
	if err := s.Connect(es.entry.Remote); err != nil {
		return err
	}
	es.sock = s
	r.sockets[es.rec.Slot] = s
	if es.rec.State == netstack.StateConnecting {
		applyOpts(s, es.rec.Opts)
		es.stage = sending
		return nil
	}
	s.SetNotify(r.notify)
	es.stage = dialing
	return nil
}

// progress advances every entry as far as possible; it is the common
// callback for connection events and send-queue drainage. Re-entrant
// invocations (an advance step triggering a socket notification) are
// coalesced into a rerun rather than recursing.
func (r *Restorer) progress() {
	if r.onDone == nil {
		return
	}
	if r.inProgress {
		r.rerun = true
		return
	}
	r.inProgress = true
	defer func() { r.inProgress = false }()
	for {
		r.rerun = false
		allDone := true
		for _, es := range r.entries {
			r.advance(es)
			if r.onDone == nil {
				return
			}
			allDone = allDone && es.stage == adjusted
		}
		if allDone {
			r.finish(nil)
			return
		}
		if !r.rerun {
			return
		}
	}
}

// advance moves one entry through its stages as far as its socket
// allows; each stage below falls through to the next once it is left.
func (r *Restorer) advance(es *entryState) {
	if es.stage == waiting && es.entry.Type == EntryConnect {
		if !r.gateOpen() {
			return
		}
		if err := r.dial(es); err != nil {
			r.finish(err)
			return
		}
	}
	if es.stage == waiting {
		child, ok := r.listeners[es.entry.Local.Port].AcceptMatching(es.entry.Remote)
		if !ok {
			return
		}
		es.sock = child
		r.sockets[es.rec.Slot] = child
		child.SetNotify(r.notify)
		r.restore(es)
	}
	if es.stage == dialing {
		if es.sock.State() != netstack.StateEstablished {
			err := es.sock.Err()
			switch {
			case err == nil:
			case errors.Is(err, netstack.ErrConnRefused) && es.retries < maxConnectRetries:
				es.stage = redialing
				es.retries++
				r.st.Network().World().After(connectRetryDelay, func() {
					if r.onDone == nil {
						return
					}
					if err := r.dial(es); err != nil {
						r.finish(err)
						return
					}
					r.progress()
				})
			default:
				r.finish(fmt.Errorf("reconnect %v->%v: %w", es.entry.Local, es.entry.Remote, err))
			}
			return
		}
		r.restore(es)
	}
	if es.stage != sending {
		return
	}
	// Re-send the saved send queue through the new connection with
	// ordinary writes; the transport delivers it reliably.
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
	// Status adjustment (shutdown flags), only after the data is fully
	// queued so the FIN sequences after it. A socket the application had
	// already released is closed again: the kernel finishes delivering
	// its tail and tears it down.
	es.stage = adjusted
	es.sock.RestoreShutdownState(es.rec.PeerClosed, es.rec.ShutWrite)
	if es.rec.AppClosed {
		es.sock.SetNotify(nil)
		es.sock.Close()
	}
}

// restore reinstates an established entry's saved state, once, and
// queues its send-queue chunks for the sending stage.
func (r *Restorer) restore(es *entryState) {
	es.stage = sending
	rec := es.rec
	applyOpts(es.sock, rec.Opts)
	InstallAltQueue(es.sock, rec.RecvData)
	es.sock.LoadOOB(rec.OOBData)
	if !rec.Redirected {
		es.pending = DiscardOverlap(rec.SendChunks, Overlap(rec.PCB, es.entry.PeerRcvNxt))
	}
	if rec.PendingAcceptOf >= 0 {
		// The application never accepted this connection: put it
		// back on its listener's queue rather than at a descriptor.
		if l := r.sockets[rec.PendingAcceptOf]; l != nil {
			l.PushAccept(es.sock)
		}
	}
}

// gateOpen reports whether waiting connect entries may dial: always,
// except under the accept-first strawman while an accept still waits.
func (r *Restorer) gateOpen() bool {
	if !r.acceptFirst {
		return true
	}
	for _, es := range r.entries {
		if es.entry.Type == EntryAccept && es.stage == waiting {
			return false
		}
	}
	return true
}

// finish is the restore's one exit: the first call clears every
// callback, closes the temporary listeners and reports err.
func (r *Restorer) finish(err error) {
	onDone := r.onDone
	if onDone == nil {
		return
	}
	r.onDone = nil
	for _, s := range r.sockets {
		if s != nil {
			s.SetNotify(nil)
		}
	}
	for _, l := range r.temps {
		l.SetNotify(nil)
		l.Close()
	}
	onDone(err)
}

// applyOpts replays a saved option set onto a fresh socket: every option
// the fresh socket holds non-zero is cleared, then every non-zero saved
// option is set, each pass in ascending key order. A zero is not every
// option's default on a fresh socket.
func applyOpts(s *netstack.Socket, opts netstack.OptSet) {
	for o := netstack.Opt(1); int(o) <= netstack.NumOpts; o++ {
		if s.GetOpt(o) != 0 {
			s.SetOpt(o, 0)
		}
	}
	for o := netstack.Opt(1); int(o) <= netstack.NumOpts; o++ {
		if opts[o] != 0 {
			s.SetOpt(o, opts[o])
		}
	}
}
