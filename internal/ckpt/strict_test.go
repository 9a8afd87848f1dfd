package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"zapc/internal/apps"
	"zapc/internal/ckpt"
	"zapc/internal/imagestore"
	"zapc/internal/imgfmt"
	"zapc/internal/memfs"
	"zapc/internal/mpi"
	"zapc/internal/netckpt"
	"zapc/internal/netstack"
	"zapc/internal/vos"
)

// The decoders inside a record — the Net section, each socket record and
// its option, chunk and datagram sub-sections, a program-state blob and
// the communicator section in it — are as strict as the record's own. A
// defect is made by relaying a resource's layout to the real writer
// through a tamper that corrupts the walk at one visit, so the bytes stay
// well-formed TLV under valid CRCs and only their structure is wrong;
// every visit of every resource is tried.

const (
	unknownTag    = "unknown tag"    // a field no layout names, before the visited one
	trailingField = "trailing field" // the same, before a section's End
	outOfOrder    = "out of order"   // the visited field missing, so the next arrives in its place
	cutMidElement = "cut"            // the visited field and the rest of its section missing
)

type tamper struct {
	imgfmt.Visitor // the writer the walk is relayed to
	s              *imgfmt.StreamEncoder
	defect         string
	at, n          int    // the visit to corrupt, and visits so far
	hit            bool   // the defect was applied
	lead           uint64 // the tag More last announced ...
	led            bool   // ... with no field visited since
	depth, cutAt   int    // open sections, and the depth of the one being cut (0: none)
}

// visit counts one field and reports whether to relay it.
func (t *tamper) visit(tag uint64) bool {
	leads := t.led && tag == t.lead
	t.led = false
	if t.cutAt > 0 {
		return false
	}
	if t.n++; t.n != t.at {
		return true
	}
	switch t.defect {
	case unknownTag:
		t.s.Uint(250, 1)
		t.hit = true
	case outOfOrder:
		// A repeated group short of one element is another valid value.
		if !leads {
			t.hit = true
			return false
		}
	case cutMidElement:
		// A record's top level ends in repeated groups: cut there, it
		// is a valid shorter record. Blobs are cut byte by byte below.
		if t.depth > 0 {
			t.hit, t.cutAt = true, t.depth
			return false
		}
	}
	return true
}

func (t *tamper) Uint(tag, v uint64) uint64 {
	if t.visit(tag) {
		t.Visitor.Uint(tag, v)
	}
	return v
}

func (t *tamper) Int(tag uint64, v int64) int64 {
	if t.visit(tag) {
		t.Visitor.Int(tag, v)
	}
	return v
}

func (t *tamper) Bool(tag uint64, v bool) bool {
	if t.visit(tag) {
		t.Visitor.Bool(tag, v)
	}
	return v
}

func (t *tamper) Float64(tag uint64, v float64) float64 {
	if t.visit(tag) {
		t.Visitor.Float64(tag, v)
	}
	return v
}

func (t *tamper) String(tag uint64, v string) string {
	if t.visit(tag) {
		t.Visitor.String(tag, v)
	}
	return v
}

func (t *tamper) Bytes(tag uint64, v []byte) []byte {
	if t.visit(tag) {
		t.Visitor.Bytes(tag, v)
	}
	return v
}

func (t *tamper) Floats(tag uint64, v []float64) []float64 {
	if t.visit(tag) {
		t.Visitor.Floats(tag, v)
	}
	return v
}

func (t *tamper) More(tag uint64, more bool) bool {
	t.lead, t.led = tag, true
	return more
}

func (t *tamper) Begin(tag uint64) {
	t.led = false
	t.depth++
	if t.cutAt == 0 {
		t.Visitor.Begin(tag)
	}
}

func (t *tamper) End() {
	if t.depth--; t.cutAt > 0 {
		if t.depth >= t.cutAt {
			return // a section inside the one being cut
		}
		t.cutAt = 0
	} else if t.n++; t.n == t.at && t.defect == trailingField {
		t.s.Uint(250, 1)
		t.hit = true
	}
	t.Visitor.End()
}

// optKey relays a layout to the writer, writing the key of the at-th
// socket option the walk visits as key.
type optKey struct {
	imgfmt.Visitor
	key        uint64
	at, n      int
	lead, next bool // More announced an option; its section opened
}

const tagOpt = 9 // netckpt's socket-option group

func (o *optKey) More(tag uint64, more bool) bool {
	o.lead = more && tag == tagOpt
	return o.Visitor.More(tag, more)
}

func (o *optKey) Begin(tag uint64) {
	o.next, o.lead = o.lead && tag == tagOpt, false
	o.Visitor.Begin(tag)
}

func (o *optKey) Uint(tag, v uint64) uint64 {
	if o.next {
		o.next = false
		if o.n++; o.n == o.at {
			o.Visitor.Uint(tag, o.key)
			return v
		}
	}
	return o.Visitor.Uint(tag, v)
}

// sweep applies defect at every visit of layout in turn, hands the bytes
// finish makes of each walk to refused, and reports how many walks the
// defect applied to.
func sweep(defect string, encoder func() *imgfmt.StreamEncoder, layout func(imgfmt.Visitor), refused func(at int, s *imgfmt.StreamEncoder)) int {
	hits := 0
	for at := 1; ; at++ {
		s := encoder()
		tm := &tamper{Visitor: imgfmt.Writer(s), s: s, defect: defect, at: at}
		layout(tm)
		if tm.n < at {
			return hits
		}
		if tm.hit {
			hits++
			refused(at, s)
		}
	}
}

func strictlyRefused(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, imgfmt.ErrTagMismatch) && !errors.Is(err, imgfmt.ErrTruncated) {
		t.Errorf("%s: err = %v, want ErrTagMismatch or ErrTruncated", what, err)
	}
}

func strictImage() *ckpt.Image {
	return &ckpt.Image{
		PodName: "strict-0", VIP: 0x0a000007, VirtualTime: 12345,
		Net: &netckpt.NetImage{PodIP: 0x0a000007, Sockets: []netckpt.SocketRecord{
			{
				Slot: 0, CreateSeq: 1, Proto: netstack.TCP, State: netstack.StateEstablished,
				Local: netstack.Addr{IP: 0x0a000007, Port: 80}, Remote: netstack.Addr{IP: 0x0a000009, Port: 4001},
				Opts:       netstack.OptSet{netstack.SO_RCVBUF: 4096, netstack.SO_KEEPALIVE: 1},
				RecvData:   []byte("owed"),
				OOBData:    []byte("!"),
				SendChunks: []netstack.Chunk{{Data: []byte("unacked")}, {Data: []byte("u"), OOB: true}, {FIN: true}},
				PCB:        netstack.PCB{SndNxt: 10, SndUna: 2, RcvNxt: 7}, PendingAcceptOf: -1,
			},
			{
				Slot: 1, CreateSeq: 2, Proto: netstack.UDP, Local: netstack.Addr{IP: 0x0a000007, Port: 53},
				Datagrams: []netstack.Datagram{
					{From: netstack.Addr{IP: 0x0a000009, Port: 5353}, Data: []byte("query")},
					{From: netstack.Addr{IP: 0x0a00000b, Port: 1}, Data: []byte("q2")},
				},
				Peeked: true, PendingAcceptOf: -1,
			},
		}},
		Procs: []ckpt.ProcImage{
			{VPID: 1, Kind: "mpi.daemon", ProgData: imgfmt.Blob(mpi.NewDaemon(0, 5999, []netstack.IP{1, 2}).Layout),
				FDs: []ckpt.FDEntry{{FD: 3, Slot: 1}}, Regions: []vos.Region{{Name: "data", Data: []byte("region")}}},
			{VPID: 2, Kind: apps.KindCPI, ProgData: imgfmt.Blob(strictProgram("cpi").Layout),
				FDs: []ckpt.FDEntry{{FD: 3, Slot: 0}, {FD: 4, Slot: 1}}},
		},
	}
}

func strictProgram(name string) vos.Program {
	return apps.NewByName(name, apps.Config{Rank: 1, Size: 4, Port: 7100, PeerIPs: []netstack.IP{1, 2, 3, 4}})
}

func TestDecodersInsideARecordAreStrict(t *testing.T) {
	defects := []string{unknownTag, trailingField, outOfOrder, cutMidElement}

	// A record, through the one chain reader.
	for _, defect := range defects {
		t.Run("record/"+defect, func(t *testing.T) {
			var rec bytes.Buffer
			hits := sweep(defect, func() *imgfmt.StreamEncoder { rec.Reset(); return imgfmt.NewStreamEncoder(&rec) },
				ckpt.ImageLayout(strictImage()), func(at int, s *imgfmt.StreamEncoder) {
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					c, err := ckpt.Chain{}.Next(bytes.NewReader(rec.Bytes()))
					if !errors.Is(err, ckpt.ErrCorruptImage) || c.Image != nil {
						t.Errorf("visit %d: err = %v, want ErrCorruptImage and an unextended chain", at, err)
					}
					strictlyRefused(t, fmt.Sprintf("visit %d", at), err)
					// The verify-only walk refuses it the same way.
					v, verr := ckpt.Chain{}.Verify(bytes.NewReader(rec.Bytes()))
					if verr == nil || verr.Error() != err.Error() || !errors.Is(verr, ckpt.ErrCorruptImage) || v.Len() != 0 {
						t.Errorf("visit %d: Verify says %v, Next %v", at, verr, err)
					}
				})
			if hits < 10 {
				t.Fatalf("the defect applied at %d visits of the record: the sweep is not reaching inside sections", hits)
			}
		})
	}

	// A well-formed record whose value would be used as an index: a socket
	// record's slot the restorer files sockets under.
	t.Run("record/slot out of range", func(t *testing.T) {
		img := strictImage()
		img.Net.Sockets[1].Slot = 7
		var rec bytes.Buffer
		s := imgfmt.NewStreamEncoder(&rec)
		ckpt.ImageLayout(img)(imgfmt.Writer(s))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		c, err := ckpt.Chain{}.Next(bytes.NewReader(rec.Bytes()))
		if !errors.Is(err, ckpt.ErrCorruptImage) || !errors.Is(err, imgfmt.ErrBadValue) || c.Image != nil {
			t.Errorf("err = %v, want ErrCorruptImage over ErrBadValue and an unextended chain", err)
		}
		if _, verr := (ckpt.Chain{}).Verify(bytes.NewReader(rec.Bytes())); !errors.Is(verr, imgfmt.ErrBadValue) || verr.Error() != err.Error() {
			t.Errorf("Verify says %v, Next %v", verr, err)
		}
	})

	// A well-formed record whose socket option key names no option — the
	// restorer indexes the option set by it — or repeats one.
	for _, key := range []uint64{0, uint64(netstack.NumOpts) + 1, 1 << 40, 1 << 63, uint64(netstack.SO_RCVBUF)} {
		t.Run(fmt.Sprintf("record/option key %d", key), func(t *testing.T) {
			var rec bytes.Buffer
			s := imgfmt.NewStreamEncoder(&rec)
			// The first socket's options are SO_RCVBUF then SO_KEEPALIVE;
			// the key of the one keyAt picks is written as key.
			keyAt := 1
			if key == uint64(netstack.SO_RCVBUF) {
				keyAt = 2
			}
			ckpt.ImageLayout(strictImage())(&optKey{Visitor: imgfmt.Writer(s), key: key, at: keyAt})
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			c, err := ckpt.Chain{}.Next(bytes.NewReader(rec.Bytes()))
			if !errors.Is(err, ckpt.ErrCorruptImage) || !errors.Is(err, imgfmt.ErrBadValue) || c.Image != nil {
				t.Errorf("err = %v, want ErrCorruptImage over ErrBadValue and an unextended chain", err)
			}
			if _, verr := (ckpt.Chain{}).Verify(bytes.NewReader(rec.Bytes())); !errors.Is(verr, imgfmt.ErrBadValue) || verr.Error() != err.Error() {
				t.Errorf("Verify says %v, Next %v", verr, err)
			}
		})
	}

	// A program-state blob of every registered kind.
	programs := map[string]vos.Program{"mpi.daemon": mpi.NewDaemon(0, 5999, []netstack.IP{1, 2})}
	for _, name := range []string{"cpi", "bt", "bratu", "povray", "churn"} {
		p := strictProgram(name)
		programs[p.Kind()] = p
	}
	read := func(kind string, blob []byte) error {
		prog, err := ckpt.NewProgram(kind)
		if err != nil {
			t.Fatal(err)
		}
		return imgfmt.ReadBlob(blob, prog.Layout)
	}
	for kind, prog := range programs {
		if err := read(kind, imgfmt.Blob(prog.Layout)); err != nil {
			t.Fatalf("%s: untampered blob: %v", kind, err)
		}
		for _, defect := range defects {
			t.Run(kind+"/"+defect, func(t *testing.T) {
				hits := sweep(defect, imgfmt.NewEncoder, prog.Layout, func(at int, s *imgfmt.StreamEncoder) {
					strictlyRefused(t, kind, read(kind, s.Finish()))
				})
				sectionless := kind == "mpi.daemon" && (defect == trailingField || defect == cutMidElement)
				if hits == 0 && !sectionless {
					t.Fatal("the defect never applied")
				}
			})
		}
		t.Run(kind+"/trailing field at the top level", func(t *testing.T) {
			s := imgfmt.NewEncoder()
			prog.Layout(imgfmt.Writer(s))
			s.Uint(250, 1)
			strictlyRefused(t, kind, read(kind, s.Finish()))
		})
		t.Run(kind+"/cut at every byte", func(t *testing.T) {
			blob := imgfmt.Blob(prog.Layout)
			hdr := len(imgfmt.Magic) + 1
			for n := hdr; n < len(blob)-4; n++ {
				cut := binary.LittleEndian.AppendUint32(blob[:n:n], crc32.ChecksumIEEE(blob[:n]))
				strictlyRefused(t, kind, read(kind, cut))
			}
		})
	}
}

// Through the store's chain reader the same refusal is ErrCorruptImage
// naming the pod and the record, with the decoder's reason kept.
func TestStrictRefusalNamesPodAndRecord(t *testing.T) {
	st := imagestore.NewFS(memfs.New())
	var rec bytes.Buffer
	s := imgfmt.NewStreamEncoder(&rec)
	// Visit 5 is the first socket's Slot: the unknown field lands inside
	// the socket record inside the Net section.
	ckpt.ImageLayout(strictImage())(&tamper{Visitor: imgfmt.Writer(s), s: s, defect: unknownTag, at: 5})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	const path = "gen/strict-0.img"
	w, err := st.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(rec.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	chains := imagestore.PodChains(st.List("gen"))
	if len(chains) != 1 {
		t.Fatalf("chains: %v", chains)
	}
	_, err = chains[0].Read(st, ckpt.Chain{})
	if !errors.Is(err, ckpt.ErrCorruptImage) || !errors.Is(err, imgfmt.ErrTagMismatch) {
		t.Fatalf("err = %v, want ErrCorruptImage wrapping ErrTagMismatch", err)
	}
	for _, want := range []string{"pod strict-0", path} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
