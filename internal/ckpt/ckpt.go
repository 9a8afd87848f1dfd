// Package ckpt implements the standalone pod checkpoint-restart
// mechanism (the Zap layer ZapC builds on): saving a suspended pod's
// entire per-node state — processes with their program state, memory
// regions, descriptor tables, virtual PIDs, and the pod's virtual clock
// — into a portable image, and reinstating it into a fresh pod on any
// node.
//
// The image uses the intermediate format of internal/imgfmt: it records
// higher-level semantic state (program-defined sections, named memory
// regions, descriptor-to-socket-slot bindings) rather than native kernel
// data, which is what makes images portable across nodes and kernel
// versions. Network state is embedded as a netckpt.NetImage and restored
// by that package's Restorer before descriptors are wired.
package ckpt

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"zapc/internal/imgfmt"
	"zapc/internal/netckpt"
	"zapc/internal/netstack"
	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// Errors returned by checkpoint and restart.
var (
	ErrNotQuiescent   = errors.New("ckpt: pod is not quiescent")
	ErrUnknownProgram = errors.New("ckpt: unknown program kind")
	// ErrCorruptImage marks a serialized pod image that fails integrity
	// validation (imgfmt CRC mismatch, truncation, an unsupported format
	// version, or a malformed field stream). Restart paths check images
	// read from shared storage before any pod is built from them.
	ErrCorruptImage = errors.New("ckpt: corrupt checkpoint image")
)

// Program registry: restart must re-instantiate programs from their Kind
// tag before feeding them their saved state.
var (
	regMu    sync.RWMutex
	registry = make(map[string]func() vos.Program)
)

// Register associates a program kind with a factory. Applications
// register their programs at init time; registration is idempotent for
// identical kinds.
func Register(kind string, factory func() vos.Program) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[kind] = factory
}

// NewProgram instantiates a registered program kind.
func NewProgram(kind string) (vos.Program, error) {
	regMu.RLock()
	f, ok := registry[kind]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownProgram, kind)
	}
	return f(), nil
}

// FDEntry binds a process descriptor to a socket slot in the pod's
// network image.
type FDEntry struct {
	FD   int
	Slot int
}

// ProcImage is the saved state of one process.
type ProcImage struct {
	VPID     vos.PID
	Kind     string
	ProgData []byte // program-defined state (an imgfmt program-state blob)
	Regions  []vos.Region
	FDs      []FDEntry
}

// Image is a complete pod checkpoint.
type Image struct {
	PodName     string
	VIP         netstack.IP
	VirtualTime sim.Time
	Net         *netckpt.NetImage
	Procs       []ProcImage

	sizeCache int64 // memoized Bytes(); images are immutable once built
}

// CheckpointPod saves a suspended pod. The pod must be quiescent with
// its network blocked (the coordinated Agent guarantees both before
// calling).
func CheckpointPod(p *pod.Pod) (*Image, error) {
	return capture(p, false)
}

// captureProc serializes one process: program state, its memory
// regions, and descriptor-to-slot bindings. The regions are aliased, not
// copied: vos marks them shared and copies one only if the process goes
// on to write it (vos.Process.WriteRegion), so the image stays exactly
// what was captured for as long as anything holds it. It touches nothing
// but its own process, so captures of distinct processes may run
// concurrently.
func captureProc(proc *vos.Process, slotOf map[*netstack.Socket]int) (ProcImage, error) {
	pi := ProcImage{
		VPID: proc.VPID,
		Kind: proc.Prog.Kind(),
	}
	pi.ProgData = imgfmt.Blob(proc.Prog.Layout)
	pi.Regions = proc.ShareMemory()
	for _, fd := range proc.FDs() {
		s, _ := proc.SocketFor(fd)
		slot, ok := slotOf[s]
		if !ok {
			return pi, fmt.Errorf("ckpt: fd %d of vpid %d references unknown socket", fd, pi.VPID)
		}
		pi.FDs = append(pi.FDs, FDEntry{FD: fd, Slot: slot})
	}
	return pi, nil
}

func sortProcs(procs []ProcImage) {
	sort.Slice(procs, func(i, j int) bool { return procs[i].VPID < procs[j].VPID })
}

// Remap rewrites the image's virtual addresses for a restart at
// different network addresses.
func (img *Image) Remap(remap map[netstack.IP]netstack.IP) {
	if n, ok := remap[img.VIP]; ok {
		img.VIP = n
	}
	netckpt.RemapImage(img.Net, remap)
}

// Bytes reports the logical serialized size of the image (the paper's
// checkpoint image size, Figure 6c): the uncompressed field stream,
// StreamStats.Raw of its record. Per-frame compression shrinks the bytes
// on the wire (StreamStats.Bytes), not this figure, so size-based
// invariants do not depend on how compressible the image is. Nothing is
// encoded to learn it: Record seeds it from the encode a checkpoint runs
// anyway, and otherwise the layout walked into a count-only encoder (no
// compression, no checksum, no copy of region bytes) computes it on
// first use. The value
// is memoized: images are treated as immutable once the checkpoint
// completes. The decoder deliberately does not seed it — Remap rewrites
// VIPs after decode and uvarint widths differ across subnets, so a
// decode-time size would go stale where this lazy one does not.
func (img *Image) Bytes() int64 {
	if img.sizeCache == 0 {
		s := imgfmt.NewStreamCounter()
		img.layout(imgfmt.Writer(s))
		img.sizeCache = s.Logical()
	}
	return img.sizeCache
}

// MemoryBytes reports just the application memory payload: every
// process's program state plus its memory regions.
func (img *Image) MemoryBytes() int64 {
	var n int64
	for i := range img.Procs {
		p := &img.Procs[i]
		n += int64(len(p.ProgData))
		for _, r := range p.Regions {
			n += int64(len(r.Data))
		}
	}
	return n
}

// RestorePod reinstates an image into a new pod on the given node,
// following the restart agent's local procedure: create an empty pod,
// recover network connectivity and state (asynchronously, via the
// netckpt Restorer and the manager-provided plan), then perform the
// standalone restart — re-create every process with its preserved
// virtual PID, program state, memory, and descriptors. The restored
// processes are left SIGSTOPped; the caller resumes them once the whole
// operation concludes. onDone receives the new pod or the first error.
//
// The created pod is also returned synchronously (nil when creation
// itself failed) so coordinated restart can track it for cleanup if the
// operation aborts while the restore is still in flight — otherwise a
// stalled restore would leak the pod's stack and keep its virtual
// address busy forever.
func RestorePod(img *Image, name string, node *vos.Node, nw *netstack.Network,
	plan *netckpt.EndpointPlan, onDone func(*pod.Pod, error)) *pod.Pod {

	newPod, err := pod.New(name, node, nw, img.VIP)
	if err != nil {
		onDone(nil, err)
		return nil
	}
	var restorer *netckpt.Restorer
	restorer = netckpt.NewRestorer(newPod.Stack(), img.Net, plan, func(err error) {
		if err != nil {
			newPod.Destroy()
			onDone(nil, err)
			return
		}
		if err := restoreProcs(img, newPod, restorer.Sockets()); err != nil {
			newPod.Destroy()
			onDone(nil, err)
			return
		}
		// Virtualize time: the pod's clock resumes from its checkpoint
		// value so application timeouts never observe the gap.
		newPod.SetTimeBias(img.VirtualTime)
		onDone(newPod, nil)
	})
	restorer.Start()
	return newPod
}

func restoreProcs(img *Image, newPod *pod.Pod, socks []*netstack.Socket) error {
	for _, pi := range img.Procs {
		prog, err := NewProgram(pi.Kind)
		if err != nil {
			return err
		}
		if err := imgfmt.ReadBlob(pi.ProgData, prog.Layout); err != nil {
			return fmt.Errorf("ckpt: restoring %s (vpid %d): %w", pi.Kind, pi.VPID, err)
		}
		proc, err := newPod.AddRestoredProcess(prog, pi.VPID)
		if err != nil {
			return err
		}
		for _, r := range pi.Regions {
			proc.SetSharedRegion(r.Name, r.Data)
		}
		for _, fe := range pi.FDs {
			if fe.Slot < 0 || fe.Slot >= len(socks) || socks[fe.Slot] == nil {
				return fmt.Errorf("ckpt: fd %d of vpid %d references unrestored socket slot %d",
					fe.FD, pi.VPID, fe.Slot)
			}
			if err := proc.InstallFD(fe.FD, socks[fe.Slot]); err != nil {
				return fmt.Errorf("ckpt: vpid %d: %w", pi.VPID, err)
			}
		}
	}
	return nil
}
