package ckpt

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"zapc/internal/netckpt"
	"zapc/internal/netstack"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// randImage builds a structurally valid random pod image.
func randImage(r *rand.Rand) *Image {
	img := &Image{
		PodName:     randName(r),
		VIP:         netstack.IP(r.Uint32()),
		VirtualTime: sim.Time(r.Int63n(1 << 40)),
		Net:         &netckpt.NetImage{},
	}
	img.Net.PodIP = img.VIP
	nSock := r.Intn(4)
	for i := 0; i < nSock; i++ {
		img.Net.Sockets = append(img.Net.Sockets, netckpt.SocketRecord{
			Slot:            i,
			Proto:           netstack.TCP,
			State:           netstack.StateEstablished,
			Local:           netstack.Addr{IP: img.VIP, Port: netstack.Port(r.Intn(1 << 16))},
			Remote:          netstack.Addr{IP: netstack.IP(r.Uint32()), Port: netstack.Port(r.Intn(1 << 16))},
			RecvData:        randBytes(r, 64),
			OOBData:         randBytes(r, 8),
			PCB:             netstack.PCB{SndNxt: r.Uint64() % 1000, SndUna: r.Uint64() % 500, RcvNxt: r.Uint64() % 1000},
			PendingAcceptOf: -1,
		})
	}
	nProc := 1 + r.Intn(3)
	for p := 0; p < nProc; p++ {
		pi := ProcImage{
			VPID:     vos.PID(p + 1),
			Kind:     randName(r),
			ProgData: randBytes(r, 128),
		}
		for k := 0; k < r.Intn(3); k++ {
			pi.Regions = append(pi.Regions, vos.Region{Name: randName(r), Data: randBytes(r, 256)})
		}
		for k := 0; k < r.Intn(3) && k < nSock; k++ {
			pi.FDs = append(pi.FDs, FDEntry{FD: k, Slot: k})
		}
		img.Procs = append(img.Procs, pi)
	}
	return img
}

func randName(r *rand.Rand) string {
	const alpha = "abcdefghijklmnop-."
	n := 1 + r.Intn(12)
	out := make([]byte, n)
	for i := range out {
		out[i] = alpha[r.Intn(len(alpha))]
	}
	return string(out)
}

func randBytes(r *rand.Rand, max int) []byte {
	out := make([]byte, r.Intn(max+1))
	r.Read(out)
	return out
}

// Property: any structurally valid pod image survives the intermediate
// format bit-exactly.
func TestQuickImageRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		img := randImage(r)
		got, err := decodeImage(recordOf(img))
		if err != nil {
			return false
		}
		if got.PodName != img.PodName || got.VIP != img.VIP || got.VirtualTime != img.VirtualTime {
			return false
		}
		if len(got.Procs) != len(img.Procs) || len(got.Net.Sockets) != len(img.Net.Sockets) {
			return false
		}
		for i, p := range img.Procs {
			q := got.Procs[i]
			if q.VPID != p.VPID || q.Kind != p.Kind || !bytes.Equal(q.ProgData, p.ProgData) {
				return false
			}
			if len(q.Regions) != len(p.Regions) || len(q.FDs) != len(p.FDs) {
				return false
			}
			for j, reg := range p.Regions {
				if q.Regions[j].Name != reg.Name || !bytes.Equal(q.Regions[j].Data, reg.Data) {
					return false
				}
			}
			for j, fd := range p.FDs {
				if q.FDs[j] != fd {
					return false
				}
			}
		}
		for i, s := range img.Net.Sockets {
			g := got.Net.Sockets[i]
			if g.Local != s.Local || g.Remote != s.Remote || g.PCB != s.PCB ||
				!bytes.Equal(g.RecvData, s.RecvData) || !bytes.Equal(g.OOBData, s.OOBData) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: corrupting any single bit of an image record is always
// detected (checksum) — images are never silently mis-restored.
func TestQuickCorruptionDetected(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	img := randImage(r)
	data := recordOf(img)
	for trial := 0; trial < 200; trial++ {
		pos := r.Intn(len(data))
		bit := byte(1) << uint(r.Intn(8))
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= bit
		if _, err := decodeImage(corrupt); err == nil {
			// CRC-32 misses no single-bit error: a flip in a frame body
			// fails that frame's CRC, one in a frame header misframes the
			// stream, one in a CRC cannot match the bytes it covers.
			t.Fatalf("single-bit corruption at %d undetected", pos)
		}
	}
}
