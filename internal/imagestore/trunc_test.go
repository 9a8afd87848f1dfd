package imagestore

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"zapc/internal/memfs"
	"zapc/internal/netstack"
	"zapc/internal/sim"
)

func TestPodOf(t *testing.T) {
	cases := map[string]string{
		"gen0001/cpi-1-0.img":       "cpi-1-0",
		"gen0001/cpi-1-0.delta":     "cpi-1-0",
		"gen0001/cpi-1-0.r03.delta": "cpi-1-0",
		"cpi-1-0.img":               "cpi-1-0",
		"dir/pod.rxx.delta":         "pod.rxx", // non-numeric round suffix stays
		"dir/odd":                   "odd",
	}
	for path, want := range cases {
		if got := PodOf(path); got != want {
			t.Errorf("PodOf(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestTruncStorePassThrough(t *testing.T) {
	st := Truncating(NewFS(memfs.New()))
	wc, err := st.Create("g/pod.img")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Write(bytes.Repeat([]byte{1}, 9000)); err != nil {
		t.Fatal(err)
	}
	if err := wc.Close(); err != nil {
		t.Fatal(err)
	}
	rc, err := st.Open("g/pod.img")
	if err != nil {
		t.Fatal(err)
	}
	all, err := io.ReadAll(rc)
	if err != nil || len(all) != 9000 {
		t.Fatalf("read back: %d bytes, %v", len(all), err)
	}
	if got := len(st.Cuts()); got != 0 {
		t.Fatalf("unarmed store cut %d streams", got)
	}
}

func TestTruncStoreWriteFault(t *testing.T) {
	st := Truncating(NewFS(memfs.New()))
	st.ArmWrites(1)
	wc, err := st.Create("g/cpi-1-2.img")
	if err != nil {
		t.Fatal(err)
	}
	// The first writes fit the budget; the one crossing it dies named.
	if _, err := wc.Write(bytes.Repeat([]byte{1}, DefaultTruncLimit/2)); err != nil {
		t.Fatal(err)
	}
	_, werr := wc.Write(bytes.Repeat([]byte{2}, DefaultTruncLimit))
	if !errors.Is(werr, ErrTruncatedStream) {
		t.Fatalf("write error = %v, want ErrTruncatedStream", werr)
	}
	if !strings.Contains(werr.Error(), "pod cpi-1-2") {
		t.Fatalf("error does not name the pod: %v", werr)
	}
	if cerr := wc.Close(); !errors.Is(cerr, ErrTruncatedStream) {
		t.Fatalf("close error = %v, want ErrTruncatedStream", cerr)
	}
	// Nothing committed, and the next stream is clean again.
	if got := st.List("g"); len(got) != 0 {
		t.Fatalf("truncated image visible: %v", got)
	}
	wc2, err := st.Create("g/cpi-1-2.img")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wc2.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := wc2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := st.Cuts(); len(got) != 1 || got[0] != "g/cpi-1-2.img" {
		t.Fatalf("cuts = %v", got)
	}
}

// TestTruncStoreWriteFaultUnderBudget pins that an armed truncation
// kills a short stream at Close rather than letting it slip through.
func TestTruncStoreWriteFaultUnderBudget(t *testing.T) {
	st := Truncating(NewFS(memfs.New()))
	st.ArmWrites(1)
	wc, err := st.Create("g/tiny.img")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if cerr := wc.Close(); !errors.Is(cerr, ErrTruncatedStream) {
		t.Fatalf("close error = %v, want ErrTruncatedStream", cerr)
	}
	if st.inner.(*memfs.FS).Exists("g/tiny.img") {
		t.Fatal("truncated image was committed")
	}
}

func TestTruncStoreReadFault(t *testing.T) {
	st := Truncating(NewFS(memfs.New()))
	wc, _ := st.Create("g/cpi-1-0.delta")
	if _, err := wc.Write(bytes.Repeat([]byte{3}, 2*DefaultTruncLimit)); err != nil {
		t.Fatal(err)
	}
	if err := wc.Close(); err != nil {
		t.Fatal(err)
	}
	st.ArmReads(1)
	rc, err := st.Open("g/cpi-1-0.delta")
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := io.ReadAll(rc)
	if !errors.Is(rerr, ErrTruncatedStream) {
		t.Fatalf("read error = %v, want ErrTruncatedStream", rerr)
	}
	if !strings.Contains(rerr.Error(), "pod cpi-1-0") {
		t.Fatalf("error does not name the pod: %v", rerr)
	}
	rc.Close()
	// Disarmed again: the record reads back whole.
	rc2, _ := st.Open("g/cpi-1-0.delta")
	all, err := io.ReadAll(rc2)
	if err != nil || len(all) != 2*DefaultTruncLimit {
		t.Fatalf("read after disarm: %d bytes, %v", len(all), err)
	}
}

// TestRemoteStoreAbortNamesPod pins the named error for a remote stream
// cut mid-image: the server's recorded failure wraps ErrTruncatedStream
// and names the pod whose record was lost, not a generic transport or
// decode error.
func TestRemoteStoreAbortNamesPod(t *testing.T) {
	w, _, srv, rem := remotePair(t, 7)
	wc, err := rem.Create("mig/bt-2-5.img")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Write(bytes.Repeat([]byte{7}, 4096)); err != nil {
		t.Fatal(err)
	}
	rw := wc.(*remoteWriter)
	drive(t, w, func() bool { return len(rw.queue) == 0 })
	rw.sock.Close() // the checkpointing node dies: no terminator
	drive(t, w, func() bool { return len(srv.Errs()) == 1 })
	got := srv.Errs()[0]
	if !errors.Is(got, ErrTruncatedStream) {
		t.Fatalf("server error = %v, want ErrTruncatedStream", got)
	}
	if !strings.Contains(got.Error(), "pod bt-2-5") {
		t.Fatalf("server error does not name the pod: %v", got)
	}
}

// resetPeer cuts the client of a transfer off the way a crashed host is:
// its stack is detached, so what it still has in flight is dropped, and
// its address stays claimed, so the next segment the server sends it
// draws a reset.
func resetPeer(nw *netstack.Network, client *netstack.Stack) {
	nw.Detach(client)
	nw.Claim(client.IPAddr())
}

// serverSide returns the server's end of its one accepted connection;
// st is the stack it serves on.
func serverSide(t *testing.T, st *netstack.Stack, srv *Server) *netstack.Socket {
	t.Helper()
	for _, s := range st.Sockets() {
		if s != srv.ls {
			return s
		}
	}
	t.Fatal("server has no accepted connection")
	return nil
}

// TestRemoteResetAfterCommitIsNoError: a peer reset that arrives after
// the terminator has committed the image, with the connection still
// open, is the end of a finished transfer, not an aborted one. The
// client writes the wire protocol by hand so that it sends no FIN: the
// reset, not an EOF, is what the server reads next.
func TestRemoteResetAfterCommitIsNoError(t *testing.T) {
	w := sim.NewWorld(8)
	nw := netstack.NewNetwork(w)
	peerFS := memfs.New()
	st, err := nw.NewStack(0x0a00ff02)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeStack(st, 9000, NewFS(peerFS))
	if err != nil {
		t.Fatal(err)
	}
	var failed []error
	srv.SetOnError(func(_ string, err error) { failed = append(failed, err) })
	client, err := nw.NewStack(0x0a00ff01)
	if err != nil {
		t.Fatal(err)
	}
	sock := client.Socket(netstack.TCP)
	if err := sock.Connect(srv.Addr()); err != nil {
		t.Fatal(err)
	}
	drive(t, w, func() bool { return sock.Poll()&netstack.PollOut != 0 })
	const path = "mig/bt-1-0.img"
	stream := append(putUvarint(nil, uint64(len(path))), path...)
	stream = append(putUvarint(stream, 4096), bytes.Repeat([]byte{7}, 4096)...)
	stream = append(stream, 0) // terminator
	if n, err := sock.Send(stream, false); err != nil || n != len(stream) {
		t.Fatalf("send: %d of %d bytes, %v", n, len(stream), err)
	}
	drive(t, w, func() bool { return len(srv.Received()) == 1 })
	conn := serverSide(t, st, srv)
	resetPeer(nw, client) // the ack of the terminator draws the reset
	drive(t, w, func() bool { return conn.Closed() })
	if !errors.Is(conn.Err(), netstack.ErrConnReset) {
		t.Fatalf("server connection ended with %v, want a reset", conn.Err())
	}
	if errs := srv.Errs(); len(errs) != 0 || len(failed) != 0 {
		t.Fatalf("reset after commit reported as a failed transfer: Errs %v, onError %v", errs, failed)
	}
	if !peerFS.Exists(path) {
		t.Fatal("committed image is gone")
	}
}

// TestRemoteResetMidPayloadNamesPod: the same reset while the payload is
// still arriving aborts the transfer, names the pod, and commits
// nothing.
func TestRemoteResetMidPayloadNamesPod(t *testing.T) {
	w, peerFS, srv, rem := remotePair(t, 9)
	var failed []string
	srv.SetOnError(func(path string, _ error) { failed = append(failed, path) })
	wc, err := rem.Create("mig/bt-2-5.img")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Write(make([]byte, 700<<10)); err != nil { // past both socket buffers
		t.Fatal(err)
	}
	rw := wc.(*remoteWriter)
	drive(t, w, func() bool { return rw.sent > 300<<10 })
	resetPeer(rem.stack.Network(), rem.stack)
	drive(t, w, func() bool { return len(srv.Errs()) == 1 })
	got := srv.Errs()[0]
	if !errors.Is(got, ErrTruncatedStream) || !strings.Contains(got.Error(), netstack.ErrConnReset.Error()) {
		t.Fatalf("server error = %v, want ErrTruncatedStream caused by a reset", got)
	}
	if !strings.Contains(got.Error(), "pod bt-2-5") {
		t.Fatalf("server error does not name the pod: %v", got)
	}
	if len(failed) != 1 || failed[0] != "mig/bt-2-5.img" {
		t.Fatalf("onError saw %q, want the one failed path", failed)
	}
	if peerFS.Exists("mig/bt-2-5.img") || len(srv.Received()) != 0 {
		t.Fatal("a reset transfer committed its image")
	}
}

// TestRecordPathRoundTrips: every name RecordPath builds parses back to
// its pod and to a rank that puts the chain in restore order, a delta's
// above the full record's.
func TestRecordPathRoundTrips(t *testing.T) {
	cases := []struct {
		full  bool
		round int
		path  string
		rank  int
	}{
		{true, 0, "gen0001/cpi-1-0.img", 0},
		{false, 3, "gen0001/cpi-1-0.r03.delta", 3},
		{false, 12, "gen0001/cpi-1-0.r12.delta", 12},
		{false, 0, "gen0001/cpi-1-0.delta", residualRank},
	}
	for _, tc := range cases {
		path := RecordPath("gen0001", "cpi-1-0", tc.full, tc.round)
		if path != tc.path {
			t.Errorf("RecordPath(full=%v, round=%d) = %q, want %q", tc.full, tc.round, path, tc.path)
		}
		if pod := PodOf(path); pod != "cpi-1-0" {
			t.Errorf("PodOf(%q) = %q", path, pod)
		}
		if rank := ChainRank(path); rank != tc.rank {
			t.Errorf("ChainRank(%q) = %d, want %d", path, rank, tc.rank)
		}
	}
}
