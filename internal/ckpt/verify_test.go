package ckpt

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"zapc/internal/vos"
)

// checkVerifyMatchesNext extends read with Next and verified — the same
// chain as Verify left it — with Verify, by the same bytes, and demands
// one verdict: both accept or both refuse with the same error (class,
// text, hence frame number), a refusal leaves each chain where it was,
// and an accepted record leaves both on the same head — pod, checksum,
// sequence, live VPIDs, a size that is every byte of data — with no image
// on the verified side.
func checkVerifyMatchesNext(t testing.TB, name string, read, verified Chain, data []byte) (Chain, Chain) {
	t.Helper()
	next, nerr := read.Next(bytes.NewReader(data))
	ver, verr := verified.Verify(bytes.NewReader(data))
	if (nerr == nil) != (verr == nil) || nerr != nil && (nerr.Error() != verr.Error() || namedErr(nerr) != namedErr(verr)) {
		t.Fatalf("%s: Next says %v, Verify %v", name, nerr, verr)
	}
	if !next.SameHead(ver) || ver.Image != nil || next.Size() != ver.Size() {
		t.Fatalf("%s: Next left head %+v, Verify %+v", name, next, ver)
	}
	if nerr != nil {
		if !next.SameHead(read) || next.Image != read.Image || next.Size() != read.Size() {
			t.Fatalf("%s: a refused record changed the chain", name)
		}
		return next, ver
	}
	if ver.Size() != int64(len(data)) {
		t.Fatalf("%s: a record of %d bytes linked with size %d", name, len(data), ver.Size())
	}
	alive := make([]vos.PID, len(next.Image.Procs))
	for i, p := range next.Image.Procs {
		alive[i] = p.VPID
	}
	if ver.pod != next.Image.PodName || !slices.Equal(ver.vpids, alive) {
		t.Fatalf("%s: verified head is pod %q vpids %v, the image it stands for pod %q vpids %v",
			name, ver.pod, ver.vpids, next.Image.PodName, alive)
	}
	return next, ver
}

// corruptions calls visit with every truncation of rec and every
// single-byte corruption of it by three masks: the sweep
// imgfmt.TestCorruptDecodeMatchesReference runs.
func corruptions(rec []byte, visit func(name string, data []byte)) {
	for cut := 0; cut < len(rec); cut++ {
		visit(fmt.Sprintf("cut at %d", cut), rec[:cut])
	}
	mut := make([]byte, len(rec))
	for pos := range rec {
		for _, xor := range []byte{0x01, 0x80, 0xff} {
			copy(mut, rec)
			mut[pos] ^= xor
			visit(fmt.Sprintf("byte %d ^ %#x", pos, xor), mut)
		}
	}
}

// TestVerifyMatchesNext: the verify-only walk refuses exactly what the
// decoding walk refuses, as the first record of a chain and as the
// second: the seed corpora of FuzzDecodeImage and FuzzDecodeDelta, every
// truncation and byte corruption of a real full record and a real delta,
// and deltas re-encoded to break each linkage rule in turn.
func TestVerifyMatchesNext(t *testing.T) {
	full, delta := fuzzChain(t)
	based, verified := checkVerifyMatchesNext(t, "full", Chain{}, Chain{}, full)
	if based.Len() != 1 || verified.Len() != 1 {
		t.Fatalf("one record linked, Len() = %d and %d", based.Len(), verified.Len())
	}
	for name, data := range map[string][]byte{
		"delta first": delta, "empty": {}, "noise": bytes.Repeat([]byte{0x5a}, 64),
		"bytes after the full image": append(slices.Clip(full), "xyz"...),
	} {
		checkVerifyMatchesNext(t, name, Chain{}, Chain{}, data)
	}
	corruptions(full, func(name string, data []byte) {
		checkVerifyMatchesNext(t, "full "+name, Chain{}, Chain{}, data)
	})
	for name, data := range map[string][]byte{
		"delta": delta, "image second": full, "empty second": {},
		"bytes after the delta": append(slices.Clip(delta), "xyz"...),
	} {
		checkVerifyMatchesNext(t, name, based, verified, data)
	}
	corruptions(delta, func(name string, data []byte) {
		checkVerifyMatchesNext(t, "delta "+name, based, verified, data)
	})
	for name, change := range map[string]func(*DeltaImage){
		"sequence gap":    func(d *DeltaImage) { d.Seq = 2 },
		"parent checksum": func(d *DeltaImage) { d.ParentSum++ },
		"pod name":        func(d *DeltaImage) { d.PodName = "other" },
		"unknown vpid":    func(d *DeltaImage) { d.Procs[0].VPID = 99 },
		"new vpid":        func(d *DeltaImage) { d.Procs[0].VPID, d.Procs[0].New = 99, true },
		"removed vpid":    func(d *DeltaImage) { d.RemovedProcs = append(d.RemovedProcs, d.Procs[0].VPID) },
		"removed and new": func(d *DeltaImage) { d.RemovedProcs, d.Procs[0].New = append(d.RemovedProcs, d.Procs[0].VPID), true },
	} {
		d, err := decodeDelta(delta)
		if err != nil || len(d.Procs) == 0 {
			t.Fatalf("seed delta: %v, %d procs", err, len(d.Procs))
		}
		change(d)
		var rec bytes.Buffer
		if _, err := d.EncodeStream(&rec); err != nil {
			t.Fatal(err)
		}
		checkVerifyMatchesNext(t, name, based, verified, rec.Bytes())
	}
	// A verified chain holds no image: Next refuses to extend it, by name.
	if _, err := verified.Next(bytes.NewReader(delta)); !namedErr(err) {
		t.Fatalf("Next on a verified chain: %v", err)
	}
}

// FuzzVerifyMatchesDecode: on arbitrary bytes, as a chain's first record
// and as its second, the verify-only walk and the decoding walk agree.
func FuzzVerifyMatchesDecode(f *testing.F) {
	full, delta := fuzzChain(f)
	addMutations(f, full)
	addMutations(f, delta)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x5a}, 64))
	based, verified := checkVerifyMatchesNext(f, "full", Chain{}, Chain{}, full)

	f.Fuzz(func(t *testing.T, data []byte) {
		checkVerifyMatchesNext(t, "first", Chain{}, Chain{}, data)
		checkVerifyMatchesNext(t, "second", based, verified, data)
	})
}
