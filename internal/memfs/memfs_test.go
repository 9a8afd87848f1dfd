package memfs

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriteRead(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("ckpt/pod1.img", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("ckpt/pod1.img")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestReadMissing(t *testing.T) {
	fs := New()
	if _, err := fs.ReadFile("nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteCopiesData(t *testing.T) {
	fs := New()
	buf := []byte("abc")
	fs.WriteFile("f", buf)
	buf[0] = 'x'
	got, _ := fs.ReadFile("f")
	if string(got) != "abc" {
		t.Fatalf("stored data aliased caller buffer: %q", got)
	}
}

func TestOverwrite(t *testing.T) {
	fs := New()
	fs.WriteFile("f", []byte("one"))
	fs.WriteFile("f", []byte("two"))
	got, _ := fs.ReadFile("f")
	if string(got) != "two" {
		t.Fatalf("got %q", got)
	}
}

func TestRemove(t *testing.T) {
	fs := New()
	fs.WriteFile("f", []byte("x"))
	if err := fs.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("f") {
		t.Fatal("file still exists")
	}
	if err := fs.Remove("f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("second remove: %v", err)
	}
}

func TestCleanPaths(t *testing.T) {
	good := map[string]string{
		"a/b/c":   "a/b/c",
		"/a/b/":   "a/b",
		"a//b":    "a/b",
		"./a/./b": "a/b",
	}
	for in, want := range good {
		got, err := Clean(in)
		if err != nil || got != want {
			t.Errorf("Clean(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, in := range []string{"", "/", "..", "a/../b", "."} {
		if _, err := Clean(in); err == nil {
			t.Errorf("Clean(%q) should fail", in)
		}
	}
}

// cleanReference is Clean as it was before canonical paths took the
// fast path: split, drop empty and "." components, refuse "..", join.
func cleanReference(path string) (string, error) {
	if path == "" {
		return "", ErrBadPath
	}
	parts := strings.Split(strings.Trim(path, "/"), "/")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		switch p {
		case "", ".":
			continue
		case "..":
			return "", fmt.Errorf("%w: %q", ErrBadPath, path)
		default:
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return "", fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	return strings.Join(out, "/"), nil
}

// TestCleanMatchesReference: every path, clean or dirty, gets the result
// and the error the split-and-join form gives it, and a path already
// clean costs no allocation.
func TestCleanMatchesReference(t *testing.T) {
	for _, in := range []string{
		"", "/", "//", ".", "..", "//a//b/", "./a", "a/../b", "a/.", "a/..", "../a",
		"a", "a/b/c", "ckpt/gen0001/pod-1.delta", "a./b", ".a/..b", "a/b/", "/a",
		"!dedup/0123abcd", "a//", "a/./b", "...",
	} {
		got, err := Clean(in)
		want, wantErr := cleanReference(in)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) || errors.Is(err, ErrBadPath) != errors.Is(wantErr, ErrBadPath) {
			t.Errorf("Clean(%q) = %q, %v; the reference gives %q, %v", in, got, err, want, wantErr)
		}
	}
	for _, in := range []string{"a", "ckpt/gen0001/pod-1.delta", "!dedup/0123abcd"} {
		if n := testing.AllocsPerRun(100, func() { _, _ = Clean(in) }); n != 0 {
			t.Errorf("Clean(%q) allocated %.0f objects, want 0", in, n)
		}
	}
}

func TestEquivalentPathsAlias(t *testing.T) {
	fs := New()
	fs.WriteFile("/a/b", []byte("x"))
	got, err := fs.ReadFile("a//b")
	if err != nil || string(got) != "x" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestList(t *testing.T) {
	fs := New()
	fs.WriteFile("ckpt/a", []byte("1"))
	fs.WriteFile("ckpt/b", []byte("2"))
	fs.WriteFile("other/c", []byte("3"))
	got := fs.List("ckpt")
	if len(got) != 2 || got[0] != "ckpt/a" || got[1] != "ckpt/b" {
		t.Fatalf("List = %v", got)
	}
	if all := fs.List(""); len(all) != 3 {
		t.Fatalf("List all = %v", all)
	}
}

func TestSizeAndTotal(t *testing.T) {
	fs := New()
	fs.WriteFile("a", make([]byte, 100))
	fs.WriteFile("b", make([]byte, 50))
	if info, _ := fs.Stat("a"); info.Size != 100 {
		t.Fatalf("Size = %d", info.Size)
	}
	var total int64
	for _, p := range fs.List("") {
		info, err := fs.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size
	}
	if total != 150 {
		t.Fatalf("total = %d", total)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	fs := New()
	fs.WriteFile("f", []byte("before"))
	snap := fs.Snapshot()
	fs.WriteFile("f", []byte("after"))
	fs.WriteFile("g", []byte("new"))
	fs.Remove("f")

	got, err := snap.ReadFile("f")
	if err != nil || string(got) != "before" {
		t.Fatalf("snapshot f = %q, %v", got, err)
	}
	if snap.Exists("g") {
		t.Fatal("snapshot sees post-snapshot file")
	}
}

func TestSnapshotIndependentWrites(t *testing.T) {
	fs := New()
	fs.WriteFile("f", []byte("v0"))
	snap := fs.Snapshot()
	snap.WriteFile("f", []byte("snap-side"))
	got, _ := fs.ReadFile("f")
	if string(got) != "v0" {
		t.Fatalf("origin affected by snapshot write: %q", got)
	}
}

// Property: write/read round-trips arbitrary contents for arbitrary valid
// paths.
func TestQuickRoundTrip(t *testing.T) {
	fs := New()
	f := func(name string, data []byte) bool {
		p, err := Clean("q/" + name)
		if err != nil {
			return true // invalid path; nothing to check
		}
		if err := fs.WriteFile(p, data); err != nil {
			return false
		}
		got, err := fs.ReadFile(p)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Streamed writes: one chunk per Write, atomic commit on Close, and
// metadata reads that never touch the contents.
func TestCreateOpenStat(t *testing.T) {
	fs := New()
	w, err := fs.Create("img/a")
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("hello "))
	w.Write([]byte("world"))
	if fs.Exists("img/a") {
		t.Fatal("file visible before Close")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("img/a")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 11 || info.Chunks != 2 {
		t.Fatalf("stat: %+v", info)
	}
	r, err := fs.Open("img/a")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "hello world" {
		t.Fatalf("streamed read: %q", buf.String())
	}
	// Multi-chunk whole-file read concatenates correctly too.
	got, err := fs.ReadFile("img/a")
	if err != nil || string(got) != "hello world" {
		t.Fatalf("ReadFile: %q %v", got, err)
	}
	// A reader opened before replacement keeps its snapshot.
	r2, _ := fs.Open("img/a")
	fs.WriteFile("img/a", []byte("new"))
	var buf2 bytes.Buffer
	buf2.ReadFrom(r2)
	if buf2.String() != "hello world" {
		t.Fatalf("snapshot read after replace: %q", buf2.String())
	}
	if info, _ := fs.Stat("img/a"); info.Chunks != 1 || info.Size != 3 {
		t.Fatalf("replaced stat: %+v", info)
	}
}
