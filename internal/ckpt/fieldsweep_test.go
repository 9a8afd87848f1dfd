package ckpt_test

// The field sweep: every field a record carries is read by some restore
// (DESIGN.md §5). `make field-sweep` runs it (ZAPC_FIELDS=1); it is not
// part of `go test ./...`.
//
// The inputs are checkpoints of the four workloads, daemons on, each
// taken at five capture points (sweepInputs), and one delta of an
// incremental bt chain. For each field of an input — a leaf of the record
// layout, of the Net section's and of every program's blob layout — the
// sweep changes every instance of that field once, re-encodes the
// records, restarts the job
// from them on a fresh cluster and runs it to completion. A field is dead
// when, in every input, the change moves none of the job's Result, its
// completion instant and the restored run's World.Events(). A refusal by
// the decoder (a Check included), a restart or run error, a panic or a
// hang counts as a read.
//
// A field is named by its tag path: the layout's root ("image", "delta" or
// the program's kind), the tags of the sections around it, and its own
// tag, as in "image/5/2", a process's kind. A section that holds one
// resource wherever it sits is named by that resource (sweepShared): a
// socket's state is "net/2/4" in a pod image and in a delta alike. Every
// instance of a field, each element of a list included, shares its path.
//
// A change keeps every encoded size: a size moves modeled costs, so a
// change that grew a record would show as a read of a field nobody reads.
// A bool flips; an integer has the bit below its highest set bit flipped,
// so its varint keeps its width (-1 becomes 0); a float, and every element
// of a float list, gains 1; a string's first byte has its low bit flipped;
// every bit of a byte field flips. An empty string, byte field or list is
// unchanged: a field the inputs never hold a value for counts as dead.
//
// The list of dead fields is pinned as empty: each that remains is named
// in sweepExempt, with the Go field it holds and the reason it stays, and
// an exemption that no longer names a dead field fails the sweep too.

import (
	"bytes"
	"fmt"
	"math/bits"
	"os"
	"sort"
	"strings"
	"testing"

	"zapc/internal/ckpt"
	"zapc/internal/cluster"
	"zapc/internal/core"
	"zapc/internal/imagestore"
	"zapc/internal/imgfmt"
	"zapc/internal/sim"
)

// sweepExempt names each field the sweep finds dead that stays, by its tag
// path, with the Go field it holds, the line that reads it and why the
// inputs do not show it.
var sweepExempt = map[string]string{
	// The option set: the paper saves "the entire set of the parameters"
	// for correctness. applyOpts (netckpt/restore.go:471) replays every
	// option; no workload's behaviour depends on the values it sets.
	"net/2/9/2": "netckpt option value: the whole option set, replayed by applyOpts (netckpt/restore.go:471)",

	// Configuration a program reads in its first step, before any
	// checkpoint can capture it, kept so a restored program is the one its
	// constructor built.
	"apps.cpi/4":    "apps.CPI.Cfg.Scale: ballast size, read by ensureBallast in the first step (apps/cpi.go:56)",
	"apps.bt/4":     "apps.BT.Cfg.Scale: ballast size, read by ensureBallast in the first step (apps/bt.go:99)",
	"apps.bt/3":     "apps.BT.Cfg.Size: ballast share, read by ensureBallast in the first step (apps/bt.go:99)",
	"apps.bratu/4":  "apps.Bratu.Cfg.Scale: ballast size, read by ensureBallast in the first step (apps/bratu.go:89)",
	"apps.povray/4": "apps.Povray.Cfg.Scale: ballast size, read by ensureBallast in the first step (apps/povray.go:122)",
	"comm/3":        "mpi.Comm.Cfg.Port: read by Init's first step, Bind and Connect (mpi/mpi.go:115, :123)",
	"comm/4":        "mpi.Comm.Cfg.PeerIPs: read by Init's first step, Connect (mpi/mpi.go:123)",

	// Program state read in a phase no capture point holds a telling
	// value in.
	"apps.cpi/13":    "apps.CPI.bcastBuf: the root's result between the reduce and the bcast, read by Bcast (apps/cpi.go:86); no input is captured there",
	"apps.bt/15":     "apps.BT.bcast: the root's norm between the reduce and the bcast, read by Bcast (apps/bt.go:181); no input is captured there",
	"apps.bratu/22":  "apps.Bratu.bcast: the root's residual between the reduce and the bcast, read by Bcast (apps/bratu.go:170); no input is captured there",
	"apps.bt/16":     "apps.BT.Pending: compute not yet charged, read by drainPending (apps/bt.go:115); the inputs are captured between sweeps, where it is 0",
	"apps.bratu/23":  "apps.Bratu.Pending: compute not yet charged, read by drainPending (apps/bratu.go:121); the inputs are captured between sweeps, where it is 0",
	"apps.bratu/19":  "apps.Bratu.Residual: the last check's residual, read by Result (apps/bratu.go:189) at any time; every run ends on a check that sets it",
	"apps.povray/12": "apps.Povray.Stopped: workers stopped so far, read by the master's end test (apps/povray.go:165); the inputs are captured before any stops",
	"comm/6":         "mpi.Comm.LFD: the listener, read by Init's accept loop (mpi/mpi.go:148) and Block (mpi/mpi.go:185); no input has a connection left to accept",
	"comm/8/2":       "mpi.Comm.pending[].Buf: a rank header's first bytes, read by Init (mpi/mpi.go:158); no input is captured mid-header",
	"comm/12":        "mpi.Comm.outq: buffered output, read by pump (mpi/mpi.go:231); no input has the kernel refuse a send",
	"comm/10":        "mpi.Comm.partial: a frame's first bytes, read by parse (mpi/mpi.go:280); no input is captured mid-frame",
	"mpi.daemon/7":   "mpi.Daemon.Sent: the heartbeat count, read into each heartbeat (mpi/daemon.go:54), whose bytes no daemon reads",
	"mpi.daemon/8":   "mpi.Daemon.Seen: the heartbeats seen, read by the increment that continues it (mpi/daemon.go:51) and by the daemon tests",

	// Pod and network state the restore installs and these workloads
	// never look at.
	"image/1":    "ckpt.Image.PodName: names the restored pod (core/core.go:1223); no result depends on a pod's name",
	"image/3":    "ckpt.Image.VirtualTime: the pod clock's bias, set by RestorePod (ckpt/ckpt.go:221); no workload reads its clock",
	"delta/3":    "ckpt.DeltaImage.VirtualTime: the pod clock's bias, carried into the image by ApplyDelta (ckpt/incr.go:80); no workload reads its clock",
	"delta/7/3":  "ckpt.ProcDelta.New: a process the parent lacks, read by ApplyDelta (ckpt/incr.go:106); no workload starts a process",
	"delta/7/2":  "ckpt.ProcDelta.Kind: a new process's program, read by ApplyDelta (ckpt/incr.go:109); no workload starts a process",
	"image/7":    "ckpt.ProcImage.Regions[].Name: installed by restoreProcs (ckpt/ckpt.go:242); the workloads' regions are ballast, never looked up",
	"image/8":    "ckpt.ProcImage.Regions[].Data: installed by restoreProcs (ckpt/ckpt.go:242); the workloads' regions are ballast, never read",
	"net/2/2":    "netckpt.SocketRecord.CreateSeq: orders the connect schedule (netckpt/schedule.go:208, :231); no two of the workloads' connections share a source port",
	"net/2/21":   "netckpt.SocketRecord.ListenBacklog: read by Listen (netckpt/restore.go:221); no input fills a backlog",
	"net/2/11":   "netckpt.SocketRecord.OOBData: loaded by LoadOOB (netckpt/restore.go:213); no workload sends out-of-band data",
	"net/2/13":   "netckpt.SocketRecord.PCB.SndNxt: bounds the overlap the peer already holds (netckpt/schedule.go:270); no input has one",
	"net/2/18":   "netckpt.SocketRecord.RawProto: read by BindRaw (netckpt/restore.go:244); no workload opens a RAW socket",
	"net/2/16/4": "netckpt.SocketRecord.Datagrams[].RawProto: a RAW datagram's protocol, loaded by LoadDatagrams (netckpt/restore.go:247); no workload opens a RAW socket",
	"net/2/16/3": "netckpt.SocketRecord.Datagrams[].Data: loaded by LoadDatagrams (netckpt/restore.go:239); the daemon discards a heartbeat's bytes",
	"net/2/16/1": "netckpt.SocketRecord.Datagrams[].From.IP: loaded by LoadDatagrams (netckpt/restore.go:239); the daemon discards a heartbeat's sender",
	"net/2/16/2": "netckpt.SocketRecord.Datagrams[].From.Port: loaded by LoadDatagrams (netckpt/restore.go:239); the daemon discards a heartbeat's sender",
}

// sweepShared names the sections that hold one resource in more than one
// layout, so that a field of it is one path wherever it sits: the network
// image of a pod image and of a delta, and the communicator each app's
// blob holds as its section 1.
var sweepShared = map[string]string{
	fmt.Sprintf("image/%d", ckpt.ImageNetTag): "net",
	fmt.Sprintf("delta/%d", ckpt.DeltaNetTag): "net",
	"apps.cpi/1":    "comm",
	"apps.bt/1":     "comm",
	"apps.bratu/1":  "comm",
	"apps.povray/1": "comm",
}

// sweepInput is one job the sweep checkpoints and restarts.
type sweepInput struct {
	name string
	spec cluster.JobSpec
	// at is the checkpoint's capture point: the instant the job's progress
	// reaches it, then after more events; with delta, the second one.
	at    float64
	after uint64
	// delta: checkpoint at 30 % and again, incrementally, at at, and
	// change the fields of the delta record; the restart reads the chain.
	delta bool
}

// sweepInputs lists the inputs: each workload checkpointed while its
// communicators connect, at a quarter, half and three quarters of its
// work (the odd event counts after a quarter and three quarters land the
// ranks in other phases of their cycle) and near the end — as the first rank
// finishes its share and the last collective is under way, or, for
// povray, whose workers exit once the master hands out no more tiles,
// before the first does — and bt's incremental delta.
func sweepInputs() []sweepInput {
	spec := func(app string) cluster.JobSpec {
		return cluster.JobSpec{App: app, Endpoints: 4, Work: 0.1, Scale: 1.0 / 64, WithDaemons: true}
	}
	var ins []sweepInput
	for _, app := range []string{"cpi", "bt", "bratu", "povray"} {
		end := 1.0
		if app == "povray" {
			end = 0.75
		}
		for _, in := range []sweepInput{
			{name: "in init", after: 15},
			{name: "at 25%", at: 0.25, after: 7},
			{name: "at 50%", at: 0.5},
			{name: "at 75%", at: 0.75, after: 13},
			{name: "near the end", at: end},
		} {
			in.name, in.spec = app+" "+in.name, spec(app)
			ins = append(ins, in)
		}
	}
	return append(ins, sweepInput{name: "bt delta", spec: spec("bt"), at: 0.6, delta: true})
}

const sweepSeed = 2005

func TestFieldSweep(t *testing.T) {
	if os.Getenv("ZAPC_FIELDS") == "" {
		t.Skip("set ZAPC_FIELDS=1 (make field-sweep) to run the field sweep")
	}
	read := make(map[string]string) // field -> the input and what moved
	var fields []string             // every field seen, in first-visit order
	seen := make(map[string]bool)
	held := make(map[string]bool) // some input holds a value of the field
	runs := 0
	for _, in := range sweepInputs() {
		recs := sweepCapture(t, in)
		want, err := sweepRestart(in, recs, 3600*sim.Second)
		if err != nil {
			t.Fatalf("%s: unchanged records: %v", in.name, err)
		}
		// A changed run still going at twice the unchanged one's finish hangs.
		deadline := 2 * sim.Duration(want.Finish)
		if again, _ := sweepRestart(in, recs, deadline); again != want {
			t.Fatalf("%s: two restarts from the same records differ: %+v, %+v", in.name, want, again)
		}
		names := &changer{}
		sweepChange(t, in, recs, names)
		for _, f := range names.order {
			if !seen[f] {
				seen[f] = true
				fields = append(fields, f)
			}
			if read[f] != "" {
				continue
			}
			ch := &changer{target: f}
			changed := sweepChange(t, in, recs, ch)
			if ch.hits == 0 {
				continue // every instance is empty: nothing to change
			}
			held[f] = true
			runs++
			got, err := sweepRestart(in, changed, deadline)
			switch {
			case err != nil:
				read[f] = fmt.Sprintf("%s: %v", in.name, err)
			case got != want:
				read[f] = fmt.Sprintf("%s: %+v, unchanged %+v", in.name, got, want)
			}
		}
		t.Logf("%s: %d fields, %d restarts so far", in.name, len(names.order), runs)
	}
	var dead []string
	for _, f := range fields {
		if read[f] != "" {
			t.Logf("read  %s (%s)", f, firstLine(read[f]))
		} else if _, ok := sweepExempt[f]; !ok {
			dead = append(dead, f)
		}
	}
	t.Logf("%d fields, %d restarts", len(fields), runs)
	for f, why := range sweepExempt {
		switch {
		case !seen[f]:
			t.Errorf("exemption names no field the layouts visit: %s", f)
		case read[f] != "":
			t.Errorf("exempt field is read, drop its exemption: %s (%s)", f, firstLine(read[f]))
		default:
			t.Logf("exempt %s: %s", f, why)
		}
	}
	sort.Strings(dead)
	for _, f := range dead {
		if held[f] {
			t.Errorf("dead: %s", f)
		} else {
			t.Errorf("dead: %s (no input holds a value of it)", f)
		}
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// podRecords is one pod's stored chain: its full image and, for a delta
// input, the delta after it.
type podRecords struct{ full, delta []byte }

// sweepCapture runs in's job and returns every pod's records, in the
// checkpoint's image order.
func sweepCapture(t *testing.T, in sweepInput) []podRecords {
	t.Helper()
	c := cluster.New(cluster.Config{Nodes: 4, Seed: sweepSeed})
	job, err := c.Launch(in.spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Mode: core.Snapshot, Workers: 2, FlushTo: "sweep/full"}
	if in.delta {
		opts.Incr = ckpt.NewIncrSet(4)
	}
	points := []float64{in.at}
	if in.delta {
		points = []float64{0.3, in.at}
	}
	var res *core.CheckpointResult
	for i, at := range points {
		if err := c.Drive(func() bool { return job.Progress() >= at }, 3600*sim.Second); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		for n := c.W.Events() + in.after; c.W.Events() < n; {
			c.W.Step()
		}
		if job.Finished() {
			t.Fatalf("%s: the job finished before its capture point", in.name)
		}
		if i > 0 {
			opts.FlushTo = "sweep/delta"
		}
		if res, err = c.Checkpoint(job, opts); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
	}
	recs := make([]podRecords, len(res.Images))
	for i, img := range res.Images {
		if recs[i].full, err = c.FS.ReadFile(imagestore.RecordPath("sweep/full", img.PodName, true, 0)); err != nil {
			t.Fatal(err)
		}
		if in.delta {
			if recs[i].delta, err = c.FS.ReadFile(imagestore.RecordPath("sweep/delta", img.PodName, false, 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return recs
}

// outcome is what a restarted job shows: its result, the instant it
// finished and how many simulation events the restart and the run took.
type outcome struct {
	Result float64
	Finish sim.Time
	Events uint64
}

// sweepRestart reads every pod's chain from recs, restarts the job from
// the images on a fresh cluster and runs it to completion, for at most
// deadline of simulated time.
func sweepRestart(in sweepInput, recs []podRecords, deadline sim.Duration) (out outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	images := make([]*ckpt.Image, len(recs))
	for i, r := range recs {
		c, err := ckpt.Chain{}.Next(bytes.NewReader(r.full))
		if err == nil && r.delta != nil {
			c, err = c.Next(bytes.NewReader(r.delta))
		}
		if err != nil {
			return out, err
		}
		images[i] = c.Image
	}
	c := cluster.New(cluster.Config{Nodes: 4, Seed: sweepSeed})
	job := &cluster.Job{Spec: in.spec}
	if _, err := c.Restart(job, images, c.Nodes); err != nil {
		return out, err
	}
	if _, err := c.RunJob(job, deadline); err != nil {
		return out, err
	}
	return outcome{job.Result(), c.W.Now(), c.W.Events()}, nil
}

// sweepChange walks ch over the records of in that the sweep changes — each
// pod's full image, or its delta — and over the program-state blob of
// each process they hold, and returns the records re-encoded.
func sweepChange(t *testing.T, in sweepInput, recs []podRecords, ch *changer) []podRecords {
	t.Helper()
	out := make([]podRecords, len(recs))
	for i, r := range recs {
		out[i] = r
		var buf bytes.Buffer
		if in.delta {
			d, err := ckpt.DecodeDeltaFrom(bytes.NewReader(r.delta))
			if err != nil {
				t.Fatal(err)
			}
			ckpt.DeltaLayout(d)(ch.walk("delta"))
			for j := range d.Procs {
				if p := &d.Procs[j]; p.ProgChanged {
					p.ProgData = changeBlob(p.Kind, p.ProgData, ch)
				}
			}
			if _, err := d.EncodeStream(&buf); err != nil {
				t.Fatal(err)
			}
			out[i].delta = buf.Bytes()
			continue
		}
		img, err := ckpt.DecodeImageFrom(bytes.NewReader(r.full), 0)
		if err != nil {
			t.Fatal(err)
		}
		ckpt.ImageLayout(img)(ch.walk("image"))
		for j := range img.Procs {
			p := &img.Procs[j]
			p.ProgData = changeBlob(p.Kind, p.ProgData, ch)
		}
		if _, err := img.EncodeStream(&buf); err != nil {
			t.Fatal(err)
		}
		out[i].full = buf.Bytes()
	}
	return out
}

// changeBlob walks ch over a program-state blob of the given kind and
// returns it re-encoded. A blob or a kind that ch itself changed as a
// record field no longer reads, and the blob is returned as it is.
func changeBlob(kind string, blob []byte, ch *changer) []byte {
	prog, err := ckpt.NewProgram(kind)
	if err != nil || imgfmt.ReadBlob(blob, prog.Layout) != nil {
		return blob
	}
	prog.Layout(ch.walk(kind))
	return imgfmt.Blob(prog.Layout)
}

// changer is the sweep's visitor. It hands every value back as it came,
// except those of the field named target, which it changes keeping their
// encoded size (see the file comment). With no target it changes nothing
// and lists the fields it visits in order.
type changer struct {
	target string
	hits   int // values of target changed
	order  []string
	listed map[string]bool
	path   string   // the tag path of the open section; at the top, the root
	open   []string // the paths of the sections around it, innermost last
}

// walk names root as the top of the next layout it is handed.
func (c *changer) walk(root string) *changer {
	c.path, c.open = root, c.open[:0]
	return c
}

// at names the field tagged tag and reports whether it is the target.
func (c *changer) at(tag uint64) bool {
	f := fmt.Sprintf("%s/%d", c.path, tag)
	if c.target == "" {
		if c.listed == nil {
			c.listed = make(map[string]bool)
		}
		if !c.listed[f] {
			c.listed[f] = true
			c.order = append(c.order, f)
		}
		return false
	}
	return f == c.target
}

func (c *changer) hit() bool { c.hits++; return true }

// flip changes x keeping its bit length, so its varint keeps its width:
// the bit below the highest set one flips, or bit 0 of 0 and 1.
func flip(x uint64) uint64 {
	if n := bits.Len64(x); n >= 2 {
		return x ^ 1<<(n-2)
	}
	return x ^ 1
}

func (c *changer) Uint(tag uint64, v uint64) uint64 {
	if c.at(tag) && c.hit() {
		return flip(v)
	}
	return v
}

// Int flips a non-negative value as Uint does and the complement of a
// negative one, so its zigzag form keeps its width too; -1, the usual
// "none", becomes 0.
func (c *changer) Int(tag uint64, v int64) int64 {
	if c.at(tag) && c.hit() {
		switch {
		case v >= 0:
			return int64(flip(uint64(v)))
		case v == -1:
			return 0
		}
		return ^int64(flip(uint64(^v)))
	}
	return v
}

func (c *changer) Bool(tag uint64, v bool) bool {
	if c.at(tag) && c.hit() {
		return !v
	}
	return v
}

func (c *changer) Float64(tag uint64, v float64) float64 {
	if c.at(tag) && c.hit() {
		return v + 1
	}
	return v
}

func (c *changer) String(tag uint64, v string) string {
	if c.at(tag) && v != "" && c.hit() {
		b := []byte(v)
		b[0] ^= 1
		return string(b)
	}
	return v
}

func (c *changer) Bytes(tag uint64, v []byte) []byte {
	if c.at(tag) && len(v) > 0 && c.hit() {
		w := make([]byte, len(v))
		for i, b := range v {
			w[i] = ^b
		}
		return w
	}
	return v
}

func (c *changer) Floats(tag uint64, v []float64) []float64 {
	if c.at(tag) && len(v) > 0 && c.hit() {
		w := make([]float64, len(v))
		for i, x := range v {
			w[i] = x + 1
		}
		return w
	}
	return v
}

func (c *changer) Begin(tag uint64) {
	c.open = append(c.open, c.path)
	c.path = fmt.Sprintf("%s/%d", c.path, tag)
	if shared, ok := sweepShared[c.path]; ok {
		c.path = shared
	}
}

func (c *changer) End() {
	c.path, c.open = c.open[len(c.open)-1], c.open[:len(c.open)-1]
}

func (c *changer) More(_ uint64, more bool) bool { return more }
func (c *changer) Check(bool, string)            {}
