package apps

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"zapc/internal/ckpt"
	"zapc/internal/imgfmt"
	"zapc/internal/mpi"
)

// sealed wraps a field stream in a program-state blob's header and CRC.
func sealed(fields []byte) []byte {
	blob := append(append([]byte(imgfmt.Magic), imgfmt.Version), fields...)
	return binary.LittleEndian.AppendUint32(blob, crc32.ChecksumIEEE(blob))
}

// FuzzRestoreProgram feeds arbitrary field bytes, under a valid blob
// header and CRC, to the layout of every registered program kind. They
// are refused, or restore a program whose blob is a fixed point: it
// restores a program that saves the same bytes. Never a panic.
func FuzzRestoreProgram(f *testing.F) {
	kinds := []string{KindCPI, KindBT, KindBratu, KindPovray, KindChurn, "mpi.daemon"}
	fields := func(blob []byte) []byte { return blob[len(imgfmt.Magic)+1 : len(blob)-4] }
	// Seeds: every kind's state a third of the way through a four-rank
	// run, root and a non-root rank, and a daemon's.
	for i, name := range []string{"cpi", "bt", "bratu", "povray", "churn"} {
		r := launch(f, name, 4, 0.02)
		r.drive(f, func() bool { return r.progs[0].Progress() >= 0.3 })
		f.Add(uint8(i), fields(imgfmt.Blob(r.progs[0].Layout)))
		f.Add(uint8(i), fields(imgfmt.Blob(r.progs[3].Layout)))
	}
	f.Add(uint8(5), fields(imgfmt.Blob(mpi.NewDaemon(1, 5999, nil).Layout)))
	f.Add(uint8(0), []byte{})

	restore := func(t *testing.T, kind string, blob []byte) ([]byte, error) {
		prog, err := ckpt.NewProgram(kind)
		if err != nil {
			t.Fatal(err)
		}
		if err := imgfmt.ReadBlob(blob, prog.Layout); err != nil {
			return nil, err
		}
		return imgfmt.Blob(prog.Layout), nil
	}
	f.Fuzz(func(t *testing.T, k uint8, body []byte) {
		kind := kinds[int(k)%len(kinds)]
		again, err := restore(t, kind, sealed(body))
		if err != nil {
			return
		}
		fixed, err := restore(t, kind, again)
		if err != nil {
			t.Fatalf("%s: the blob a restored program saves is refused: %v", kind, err)
		}
		if !bytes.Equal(fixed, again) {
			t.Fatalf("%s: the blob a restored program saves is not a fixed point", kind)
		}
	})
}
