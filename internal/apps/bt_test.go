package apps

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"zapc/internal/vos"
)

// btSweepModulo is the sweep as first written, every neighbour index
// wrapped with %: the reference btSweep must match bit for bit.
func btSweepModulo(next, grid []float64, n int, forcing float64) {
	at := func(i, j int) float64 { return grid[i*n+j] }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			up := at((i-1+n)%n, j)
			dn := at((i+1)%n, j)
			lf := at(i, (j-1+n)%n)
			rt := at(i, (j+1)%n)
			next[i*n+j] = 0.2495*(up+dn+lf+rt) + forcing
		}
	}
}

func TestBTSweepMatchesModuloReference(t *testing.T) {
	for _, n := range []int{4, 5, 20, 40} {
		grid := make([]float64, n*n)
		for i := range grid {
			grid[i] = math.Sin(float64(i+1)*0.01) * 3
		}
		ref := append([]float64(nil), grid...)
		next, refNext := make([]float64, n*n), make([]float64, n*n)
		for it := 0; it < 50; it++ {
			forcing := 0.001 * math.Sin(float64(it))
			btSweep(next, grid, n, forcing)
			btSweepModulo(refNext, ref, n, forcing)
			for k := range next {
				if math.Float64bits(next[k]) != math.Float64bits(refNext[k]) {
					t.Fatalf("n=%d iter %d cell (%d,%d): %v, reference %v", n, it, k/n, k%n, next[k], refNext[k])
				}
			}
			grid, next = next, grid
			ref, refNext = refNext, ref
		}
	}
}

func BenchmarkBTSweep(b *testing.B) {
	for _, n := range []int{5, 20, 80} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			grid, next := make([]float64, n*n), make([]float64, n*n)
			for i := range grid {
				grid[i] = math.Sin(float64(i + 1))
			}
			b.SetBytes(int64(8 * n * n))
			for i := 0; i < b.N; i++ {
				btSweep(next, grid, n, 0.001)
				grid, next = next, grid
			}
		})
	}
}

// ballastOf returns the data region of rank i's process.
func (r *rig) ballastOf(t *testing.T, i int) (*vos.Process, []byte) {
	t.Helper()
	proc, ok := r.pods[i].Lookup(1)
	if !ok {
		t.Fatalf("rank %d has no process", i)
	}
	data, ok := proc.Region("data")
	if !ok {
		t.Fatalf("rank %d has no ballast", i)
	}
	return proc, data
}

// The ranks of a job alias one ballast, and a write through WriteRegion
// gives the writer a private copy: the other rank and the memo keep the
// pattern.
func TestBallastSharedCopyOnWrite(t *testing.T) {
	r := launch(t, "bt", 4, 0.05)
	r.drive(t, func() bool {
		for _, p := range r.progs {
			if p.Progress() == 0 {
				return false
			}
		}
		return true
	})
	n := BallastBytes("bt", 4, 0.001)
	want := ballast(n)
	p0, d0 := r.ballastOf(t, 0)
	_, d1 := r.ballastOf(t, 1)
	if unsafe.SliceData(d0) != unsafe.SliceData(d1) {
		t.Fatal("ranks 0 and 1 hold separate ballasts")
	}
	w, err := p0.WriteRegion("data")
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(w) == unsafe.SliceData(d1) {
		t.Fatal("WriteRegion handed out the shared ballast")
	}
	for i := range w {
		w[i] = ^w[i]
	}
	if _, d1 = r.ballastOf(t, 1); !bytes.Equal(d1, want) {
		t.Fatal("rank 1's ballast changed under rank 0's write")
	}
	if !bytes.Equal(sharedBallast(n), want) {
		t.Fatal("the memoized ballast changed under rank 0's write")
	}
}

// A whole bt run with a checkpoint and restart in the middle leaves the
// memoized ballast the pattern it was built as.
func TestBallastMemoSurvivesCheckpointRestart(t *testing.T) {
	migrateMidRun(t, "bt", 4, 0.05)
	n := BallastBytes("bt", 4, 0.001)
	if !bytes.Equal(sharedBallast(n), ballast(n)) {
		t.Fatal("the memoized ballast is no longer the pattern")
	}
}
