package mpi

import (
	"encoding/binary"

	"zapc/internal/imgfmt"
	"zapc/internal/netstack"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// Daemon models the per-pod middleware daemon (mpd for MPICH-2, pvmd
// for PVM): each pod in the paper's setup runs one alongside the
// application endpoint. It exchanges periodic UDP heartbeats with its
// peers, which keeps live UDP socket state in every pod so checkpoints
// exercise the unreliable-protocol path of the network-state mechanism.
type Daemon struct {
	Phase    int
	FD       int
	Rank     int
	Port     netstack.Port
	PeerIPs  []netstack.IP
	Interval sim.Duration
	Sent     uint64
	Seen     uint64
}

// DefaultHeartbeat is the daemon heartbeat period.
const DefaultHeartbeat = 250 * sim.Millisecond

// NewDaemon creates a daemon for the given rank.
func NewDaemon(rank int, port netstack.Port, peers []netstack.IP) *Daemon {
	return &Daemon{Rank: rank, Port: port, PeerIPs: append([]netstack.IP(nil), peers...), Interval: DefaultHeartbeat}
}

// Step implements vos.Program.
func (d *Daemon) Step(ctx *vos.Context) vos.StepResult {
	switch d.Phase {
	case 0:
		d.FD = ctx.Socket(netstack.UDP)
		if err := ctx.Bind(d.FD, d.Port); err != nil {
			return vos.Exit(1)
		}
		d.Phase = 1
		return vos.Yield(0)
	default:
		for {
			if _, err := ctx.RecvFrom(d.FD, false); err != nil {
				break
			}
			d.Seen++
		}
		var beat [8]byte
		binary.BigEndian.PutUint64(beat[:], d.Sent)
		for i, ip := range d.PeerIPs {
			if i == d.Rank {
				continue
			}
			ctx.SendTo(d.FD, beat[:], netstack.Addr{IP: ip, Port: d.Port})
		}
		d.Sent++
		return vos.Sleep(d.Interval)
	}
}

// Layout implements vos.Program.
func (d *Daemon) Layout(v imgfmt.Visitor) {
	d.Phase = imgfmt.Int(v, 1, d.Phase)
	d.FD = imgfmt.Int(v, 2, d.FD)
	d.Rank = imgfmt.Int(v, 3, d.Rank)
	d.Port = imgfmt.Uint(v, 4, d.Port)
	d.PeerIPs = imgfmt.Each(v, 5, d.PeerIPs, ipField)
	d.Interval = imgfmt.Int(v, 6, d.Interval)
	d.Sent = v.Uint(7, d.Sent)
	d.Seen = v.Uint(8, d.Seen)
}

// Kind implements vos.Program.
func (d *Daemon) Kind() string { return "mpi.daemon" }
