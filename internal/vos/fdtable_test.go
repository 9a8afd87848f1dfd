package vos

import (
	"errors"
	"slices"
	"testing"

	"zapc/internal/netstack"
)

// fdProc spawns a process that runs fn in its one step and leaves the
// process behind for the test to inspect (it exits after the step).
func fdProc(t *testing.T, fn func(ctx *Context, p *Process)) *Process {
	t.Helper()
	w, n, env := testEnv(t)
	var proc *Process
	n.Spawn(&probeProg{fn: func(ctx *Context) {
		proc = ctx.Proc()
		fn(ctx, proc)
	}}, env)
	w.Run()
	if proc == nil {
		t.Fatal("probe never ran")
	}
	return proc
}

// A closed descriptor is bad until something is installed in its slot,
// and a new socket takes the next descriptor, never the hole.
func TestFDCloseThenReuse(t *testing.T) {
	fdProc(t, func(ctx *Context, p *Process) {
		a := ctx.Socket(netstack.TCP)
		b := ctx.Socket(netstack.UDP)
		sa, _ := p.SocketFor(a)
		if err := ctx.Close(a); err != nil {
			t.Fatal(err)
		}
		if _, ok := p.SocketFor(a); ok {
			t.Fatalf("fd %d still open after Close", a)
		}
		if err := ctx.Close(a); !errors.Is(err, ErrBadFD) {
			t.Fatalf("second Close(%d) = %v, want ErrBadFD", a, err)
		}
		if c := ctx.Socket(netstack.TCP); c <= b {
			t.Fatalf("new socket got fd %d, want one past %d", c, b)
		}
		if err := p.InstallFD(a, sa); err != nil {
			t.Fatal(err)
		}
		if s, ok := p.SocketFor(a); !ok || s != sa {
			t.Fatalf("SocketFor(%d) after reinstall = %v, %v", a, s, ok)
		}
	})
}

// InstallFD grows the table past its end and fills a hole inside it;
// the next socket is numbered past the highest installed descriptor.
func TestInstallFDPastEndAndIntoHole(t *testing.T) {
	fdProc(t, func(ctx *Context, p *Process) {
		s := ctx.Proc().Env.Stack.Socket(netstack.TCP)
		u := ctx.Proc().Env.Stack.Socket(netstack.UDP)
		if err := p.InstallFD(7, s); err != nil {
			t.Fatal(err)
		}
		if err := p.InstallFD(3, u); err != nil {
			t.Fatal(err)
		}
		if got := p.FDs(); !slices.Equal(got, []int{3, 7}) {
			t.Fatalf("FDs() = %v, want [3 7]", got)
		}
		if got, _ := p.SocketFor(3); got != u {
			t.Fatalf("hole 3 holds %v", got)
		}
		if fd := ctx.Socket(netstack.TCP); fd != 8 {
			t.Fatalf("next socket is fd %d, want 8", fd)
		}
		for _, bad := range []int{-1, MaxFD} {
			if err := p.InstallFD(bad, s); !errors.Is(err, ErrBadFD) {
				t.Fatalf("InstallFD(%d) = %v, want ErrBadFD", bad, err)
			}
		}
	})
}

// SocketFor refuses negative, closed and out-of-range descriptors, and
// the syscalls report them as ErrBadFD.
func TestSocketForBadDescriptors(t *testing.T) {
	fdProc(t, func(ctx *Context, p *Process) {
		a := ctx.Socket(netstack.TCP)
		ctx.Socket(netstack.TCP)
		if err := ctx.Close(a); err != nil {
			t.Fatal(err)
		}
		for _, fd := range []int{-1, -1 << 40, a, 2, 1 << 20, int(^uint(0) >> 1)} {
			if s, ok := p.SocketFor(fd); ok || s != nil {
				t.Errorf("SocketFor(%d) = %v, %v", fd, s, ok)
			}
			if err := ctx.Bind(fd, 1); !errors.Is(err, ErrBadFD) {
				t.Errorf("Bind(%d) = %v, want ErrBadFD", fd, err)
			}
		}
	})
}

// FDs lists the open descriptors in ascending order across holes, in one
// allocation.
func TestFDsAscendingAcrossHoles(t *testing.T) {
	fdProc(t, func(ctx *Context, p *Process) {
		var fds []int
		for range 6 {
			fds = append(fds, ctx.Socket(netstack.UDP))
		}
		ctx.Close(fds[1])
		ctx.Close(fds[4])
		want := []int{fds[0], fds[2], fds[3], fds[5]}
		if got := p.FDs(); !slices.Equal(got, want) {
			t.Fatalf("FDs() = %v, want %v", got, want)
		}
		if a := testing.AllocsPerRun(100, func() { p.FDs() }); a != 1 {
			t.Fatalf("FDs() makes %v allocations, want 1", a)
		}
	})
}

// Exit closes every open socket and empties the table.
func TestExitEmptiesFDTable(t *testing.T) {
	p := fdProc(t, func(ctx *Context, p *Process) {
		for range 3 {
			ctx.Socket(netstack.TCP)
		}
		ctx.Close(1)
	})
	if p.Status() != StatusExited {
		t.Fatalf("status %v", p.Status())
	}
	if got := p.FDs(); len(got) != 0 {
		t.Fatalf("exited process still lists %v", got)
	}
	for fd := range 4 {
		if _, ok := p.SocketFor(fd); ok {
			t.Errorf("fd %d open after exit", fd)
		}
	}
	if got := len(p.Env.Stack.Sockets()); got != 0 {
		t.Fatalf("%d sockets left on the stack after exit", got)
	}
}
