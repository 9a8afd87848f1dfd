package imagestore

import (
	"bytes"
	"errors"
	"io"
	"math/bits"
	"testing"

	"zapc/internal/allocs"
	"zapc/internal/memfs"
	"zapc/internal/netstack"
	"zapc/internal/sim"
)

func drive(t *testing.T, w *sim.World, cond func() bool) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if cond() {
			return
		}
		if !w.Step() {
			break
		}
	}
	if !cond() {
		t.Fatal("condition never reached")
	}
}

// remotePair starts a world of the given seed whose network holds a
// Server over a fresh memfs and a Remote that ships images to it.
func remotePair(t *testing.T, seed int64) (*sim.World, *memfs.FS, *Server, *Remote) {
	t.Helper()
	w := sim.NewWorld(seed)
	nw := netstack.NewNetwork(w)
	peerFS := memfs.New()
	srv, err := NewServer(nw, 0x0a00ff02, 9000, NewFS(peerFS))
	if err != nil {
		t.Fatal(err)
	}
	rem, err := NewRemote(nw, 0x0a00ff01, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return w, peerFS, srv, rem
}

func TestFSStoreRoundTrip(t *testing.T) {
	fs := memfs.New()
	st := NewFS(fs)
	wc, err := st.Create("gen0/pod.img")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := wc.Write(bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Not visible until committed.
	if got := st.List("gen0"); len(got) != 0 {
		t.Fatalf("uncommitted image visible: %v", got)
	}
	if err := wc.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("gen0/pod.img")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 300 || info.Chunks != 3 {
		t.Fatalf("stat: %+v", info)
	}
	rc, err := st.Open("gen0/pod.img")
	if err != nil {
		t.Fatal(err)
	}
	all, err := io.ReadAll(rc)
	if err != nil || len(all) != 300 {
		t.Fatalf("read: %d bytes, %v", len(all), err)
	}
	if err := st.Remove("gen0/pod.img"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Open("gen0/pod.img"); err == nil {
		t.Fatal("open after remove succeeded")
	}
}

// TestRemoteStoreTransfer streams a multi-chunk image over the virtual
// network and checks it commits on the peer — chunked, byte-identical,
// and invisible until complete.
func TestRemoteStoreTransfer(t *testing.T) {
	w, peerFS, srv, rem := remotePair(t, 1)
	payload := make([]byte, 700*1024) // well past both socket buffers
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	wc, err := rem.Create("mig/pod-3.img")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for off := 0; off < len(payload); off += 60000 {
		end := off + 60000
		if end > len(payload) {
			end = len(payload)
		}
		if _, err := wc.Write(payload[off:end]); err != nil {
			t.Fatal(err)
		}
		want.Write(payload[off:end])
	}
	if err := wc.Close(); err != nil {
		t.Fatal(err)
	}
	if len(srv.Received()) != 0 && peerFS.Exists("mig/pod-3.img") {
		t.Fatal("image committed before the stream could have arrived")
	}
	drive(t, w, func() bool { return len(srv.Received()) == 1 })
	if errs := srv.Errs(); len(errs) != 0 {
		t.Fatalf("server errors: %v", errs)
	}
	got, err := peerFS.ReadFile("mig/pod-3.img")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("transferred image differs: %d vs %d bytes", len(got), want.Len())
	}
	info, err := peerFS.Stat("mig/pod-3.img")
	if err != nil {
		t.Fatal(err)
	}
	if info.Chunks <= 1 {
		t.Fatalf("image stored as %d chunk(s); expected streamed chunks", info.Chunks)
	}
}

// TestRemoteWriterCopiesEachWriteOnce ships a 1 MiB record the way the
// standby plane does: 64 KiB writes from one reused buffer, all made right
// after Create, while the connection is still being set up, so the writer
// stages the whole record. Each write is copied once, at its size: the
// writes allocate one object apiece, besides the regrowth of the entry
// list and of the prefix buffer, and no more bytes than the record and a
// little for those two.
func TestRemoteWriterCopiesEachWriteOnce(t *testing.T) {
	const chunk = 64 << 10
	record := bytes.Repeat([]byte("zapc"), 1<<18)
	buf := make([]byte, chunk)
	var w *sim.World
	var peerFS *memfs.FS
	var srv *Server
	var wc io.WriteCloser
	objects, allocated := allocs.Measure(3, func() func() {
		var rem *Remote
		w, peerFS, srv, rem = remotePair(t, 4)
		var err error
		if wc, err = rem.Create("mig/pod-0.img"); err != nil {
			t.Fatal(err)
		}
		return func() {
			for off := 0; off < len(record); off += chunk {
				copy(buf, record[off:])
				if _, err := wc.Write(buf); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	writes := len(record) / chunk
	t.Logf("%d writes allocated %d objects, %d bytes", writes, objects, allocated)
	if staged := wc.(*remoteWriter).sent; staged != 0 {
		t.Fatalf("the socket took %d bytes before the connection was up", staged)
	}
	if limit := uint64(writes + 2*bits.Len(uint(2*writes))); objects > limit {
		t.Errorf("%d writes allocated %d objects, more than one each and the regrowth (%d)", writes, objects, limit)
	}
	if limit := uint64(len(record) + len(record)/64); allocated > limit {
		t.Errorf("%d writes allocated %d bytes for a %d-byte record, more than %d", writes, allocated, len(record), limit)
	}
	if err := wc.Close(); err != nil {
		t.Fatal(err)
	}
	drive(t, w, func() bool { return len(srv.Received()) == 1 })
	if got, err := peerFS.ReadFile("mig/pod-0.img"); err != nil || !bytes.Equal(got, record) {
		t.Fatalf("shipped record: %d bytes, %v", len(got), err)
	}
}

// TestRemoteStoreAbort kills the connection mid-stream and checks the
// server discards the partial image instead of committing it.
func TestRemoteStoreAbort(t *testing.T) {
	w, peerFS, srv, rem := remotePair(t, 2)
	wc, err := rem.Create("mig/partial.img")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Write(bytes.Repeat([]byte{7}, 4096)); err != nil {
		t.Fatal(err)
	}
	// Close the raw socket without the protocol terminator by reaching
	// through the writer: simulate the checkpointing node dying.
	rw := wc.(*remoteWriter)
	drive(t, w, func() bool { return len(rw.queue) == 0 })
	rw.sock.Close()
	drive(t, w, func() bool { return len(srv.Errs()) == 1 })
	if peerFS.Exists("mig/partial.img") {
		t.Fatal("partial image was committed")
	}
}

// TestRemoteIsWriteOnly pins the read-side contract.
func TestRemoteIsWriteOnly(t *testing.T) {
	w := sim.NewWorld(3)
	nw := netstack.NewNetwork(w)
	rem, err := NewRemote(nw, 0x0a00ff01, netstack.Addr{IP: 0x0a00ff02, Port: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rem.Open("x"); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Open: %v", err)
	}
	if err := rem.Remove("x"); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Remove: %v", err)
	}
	if got := rem.List(""); got != nil {
		t.Fatalf("List: %v", got)
	}
}
