package agg

import (
	"math"
	"testing"

	"idldp/internal/bitvec"
)

func report(m int, ones ...int) *bitvec.Vector {
	v := bitvec.New(m)
	for _, i := range ones {
		v.Set(i)
	}
	return v
}

func TestAddAndCounts(t *testing.T) {
	a := New(4)
	a.Add(report(4, 0, 2))
	a.Add(report(4, 2, 3))
	if a.N() != 2 || a.Bits() != 4 {
		t.Fatalf("N=%d Bits=%d", a.N(), a.Bits())
	}
	want := []int64{1, 0, 2, 1}
	got := a.Counts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Counts=%v want %v", got, want)
		}
	}
}

func TestAddWrongLengthPanics(t *testing.T) {
	a := New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Add(report(5, 0))
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

func TestAddCounts(t *testing.T) {
	a := New(3)
	if err := a.AddCounts([]int64{5, 0, 3}, 10); err != nil {
		t.Fatal(err)
	}
	if a.N() != 10 || a.Counts()[0] != 5 {
		t.Fatal("batch not recorded")
	}
	if err := a.AddCounts([]int64{1, 2}, 5); err == nil {
		t.Error("wrong length accepted")
	}
	if err := a.AddCounts([]int64{1, 2, 3}, -1); err == nil {
		t.Error("negative n accepted")
	}
	if err := a.AddCounts([]int64{11, 0, 0}, 10); err == nil {
		t.Error("count > n accepted")
	}
	if err := a.AddCounts([]int64{-1, 0, 0}, 10); err == nil {
		t.Error("negative count accepted")
	}
}

func TestMerge(t *testing.T) {
	a, b := New(3), New(3)
	a.Add(report(3, 0))
	b.Add(report(3, 1))
	b.Add(report(3, 1, 2))
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != 3 {
		t.Fatalf("N=%d want 3", a.N())
	}
	want := []int64{1, 2, 1}
	got := a.Counts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Counts=%v want %v", got, want)
		}
	}
	if err := a.Merge(New(4)); err == nil {
		t.Error("domain mismatch accepted")
	}
}

func TestEstimate(t *testing.T) {
	a := New(2)
	// 100 reports with bit 0 set 40 times, bit 1 set 20 times.
	for i := 0; i < 100; i++ {
		v := bitvec.New(2)
		if i < 40 {
			v.Set(0)
		}
		if i < 20 {
			v.Set(1)
		}
		a.Add(v)
	}
	est, err := a.Estimate([]float64{0.7, 0.7}, []float64{0.2, 0.2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est[0]-40) > 1e-9 || math.Abs(est[1]-0) > 1e-9 {
		t.Fatalf("est=%v want [40 0]", est)
	}
}

// Concurrent aggregation coverage lives in internal/server, which is the
// sharded pipeline every concurrent deployment now runs on.
