package standby

import "errors"

// The transition table, by name, for the external table tests.

var (
	PhaseNames = [numPhases]string{"idle", "shipping", "applying", "handing-over", "promoted"}
	EventNames = [numEvents]string{"sync", "next-gen", "commit", "cut", "applied", "stall", "promote"}
	// ErrCut is the transfer error Deliver reports for the cut event.
	ErrCut = errors.New("test cut")
)

// Cell is the table's cell: nil when phase ph handles event ev,
// otherwise why it ignores ev.
func Cell(ph, ev int) error { return ignores[ph][ev] }

// Phase names the plane's phase.
func (p *Plane) Phase() string { return PhaseNames[p.phase] }

// OnTheWire is the record whose commit the plane waits for ("" when none).
func (p *Plane) OnTheWire() string { return p.want }

// Deliver reports one of the events a callback the plane handed out
// carries — next-gen, commit, cut, applied or stall — as that callback
// would: a commit or a cut names the record on the wire.
func (p *Plane) Deliver(ev int) {
	switch event(ev) {
	case evNextGen:
		p.nextGen()
	case evCommit:
		p.onRecord(p.want)
	case evCut:
		p.onTransferError(p.want, ErrCut)
	case evApplied:
		p.applied()
	case evStall:
		p.stalled()
	default:
		panic("Deliver: " + EventNames[ev] + " is a call, not a callback")
	}
}
