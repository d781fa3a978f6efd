package dataset

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"path/filepath"
	"testing"
)

func TestPowerLawSingleShape(t *testing.T) {
	d := PowerLawSingle(50000, 100, 2, 1)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.N() != 50000 || d.M != 100 {
		t.Fatalf("N=%d M=%d", d.N(), d.M)
	}
	counts := d.TrueCounts()
	// Head items dominate: item 0 should hold well over 10× item 50's mass.
	if counts[0] < 10*counts[50]+1 {
		t.Errorf("power law not skewed: c0=%v c50=%v", counts[0], counts[50])
	}
	var total float64
	for _, c := range counts {
		total += c
	}
	if total != 50000 {
		t.Fatalf("counts sum to %v", total)
	}
}

func TestUniformSingleShape(t *testing.T) {
	d := UniformSingle(100000, 100, 2)
	counts := d.TrueCounts()
	want := 1000.0
	for i, c := range counts {
		if math.Abs(c-want) > 6*math.Sqrt(want) {
			t.Errorf("item %d count %v want ≈%v", i, c, want)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := PowerLawSingle(1000, 50, 2, 7)
	b := PowerLawSingle(1000, 50, 2, 7)
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatal("same seed produced different datasets")
		}
	}
	c := PowerLawSingle(1000, 50, 2, 8)
	same := 0
	for i := range a.Items {
		if a.Items[i] == c.Items[i] {
			same++
		}
	}
	if same == len(a.Items) {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestKosarakStatistics(t *testing.T) {
	cfg := DefaultKosarak()
	cfg.Users = 5000
	d := Kosarak(cfg)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.N() != 5000 || d.M != cfg.Pages {
		t.Fatalf("N=%d M=%d", d.N(), d.M)
	}
	mean := d.MeanSetSize()
	// Geometric(1/8.1) truncated by dedup: mean lands near but below 8.1.
	if mean < 4 || mean > 9 {
		t.Errorf("mean set size %v outside plausible [4,9]", mean)
	}
	counts := d.TrueCounts()
	if counts[0] <= counts[cfg.Pages/2] {
		t.Error("popularity not skewed")
	}
}

func TestKosarakFullScaleConfig(t *testing.T) {
	c := DefaultKosarak().FullScale()
	if c.Users != 990002 || c.Pages != 41270 {
		t.Fatalf("full-scale config %+v", c)
	}
}

func TestRetailStatistics(t *testing.T) {
	cfg := DefaultRetail()
	cfg.Users = 5000
	d := Retail(cfg)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	mean := d.MeanSetSize()
	if mean < 6 || mean > 14 {
		t.Errorf("mean basket size %v outside plausible [6,14] (real ≈10.3)", mean)
	}
	for _, s := range d.Sets {
		if len(s) > 76 {
			t.Fatalf("basket size %d exceeds real maximum 76", len(s))
		}
	}
	if c := DefaultRetail().FullScale(); c.Users != 88162 || c.Items != 16470 {
		t.Fatalf("full-scale config %+v", c)
	}
}

func TestMSNBCStatistics(t *testing.T) {
	cfg := DefaultMSNBC()
	cfg.Users = 20000
	d := MSNBC(cfg)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.M != 17 {
		t.Fatalf("M=%d want 17", d.M)
	}
	// Deduplicated sets are bounded by the category count.
	maxLen := 0
	for _, s := range d.Sets {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	if maxLen > 17 {
		t.Fatalf("set size %d exceeds category count", maxLen)
	}
	// "Extremely uneven" lengths: both singletons and near-full sets occur.
	small, large := 0, 0
	for _, s := range d.Sets {
		if len(s) <= 1 {
			small++
		}
		if len(s) >= 8 {
			large++
		}
	}
	if small == 0 || large == 0 {
		t.Errorf("set sizes not uneven: %d small, %d large", small, large)
	}
	if c := DefaultMSNBC().FullScale(); c.Users != 989818 {
		t.Fatalf("full-scale config %+v", c)
	}
}

func TestFirstItems(t *testing.T) {
	d := &SetValued{Sets: [][]int{{3, 1}, {}, {2}}, M: 5}
	s := d.FirstItems()
	if s.N() != 2 || s.Items[0] != 3 || s.Items[1] != 2 {
		t.Fatalf("FirstItems=%v", s.Items)
	}
	if s.M != 5 {
		t.Fatalf("M=%d", s.M)
	}
}

func TestTopM(t *testing.T) {
	d := &SetValued{
		Sets: [][]int{{0, 1, 2}, {1, 2}, {2}, {1}, {3}},
		M:    5,
	}
	// Frequencies: item2=3, item1=3, item0=1, item3=1, item4=0.
	r, err := d.TopM(2)
	if err != nil {
		t.Fatal(err)
	}
	if r.M != 2 {
		t.Fatalf("M=%d", r.M)
	}
	// Tie between 1 and 2 breaks toward smaller index: new 0 = old 1,
	// new 1 = old 2.
	counts := r.TrueCounts()
	if counts[0] != 3 || counts[1] != 3 {
		t.Fatalf("counts=%v", counts)
	}
	// User 2 held only old item 2 → new set {1}; user 4 held item 3 → empty.
	if len(r.Sets[2]) != 1 || r.Sets[2][0] != 1 {
		t.Fatalf("Sets[2]=%v", r.Sets[2])
	}
	if len(r.Sets[4]) != 0 {
		t.Fatalf("Sets[4]=%v", r.Sets[4])
	}
	if _, err := d.TopM(0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := d.TopM(6); err == nil {
		t.Error("m>M accepted")
	}
}

// hashSets is FNV-1a over the domain, the user count, and every set's
// length and items in order.
func hashSets(d *SetValued) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(d.M)
	put(len(d.Sets))
	for _, s := range d.Sets {
		put(len(s))
		for _, i := range s {
			put(i)
		}
	}
	return h.Sum64()
}

// layoutCases are the generators and TopM at fixed seeds, each with the
// hash of its output computed before the sets were held in one backing
// array: the flat layout must not change a draw or an item.
func layoutCases(t *testing.T) map[string]struct {
	d    *SetValued
	hash uint64
} {
	t.Helper()
	rc := DefaultRetail()
	rc.Items, rc.Seed = 4096, 1 // the bench's batch_set shape, 20k users
	retailTop, err := Retail(rc).TopM(1024)
	if err != nil {
		t.Fatal(err)
	}
	kosarak := Kosarak(DefaultKosarak())
	kosarakTop, err := kosarak.TopM(100)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]struct {
		d    *SetValued
		hash uint64
	}{
		"Retail":      {Retail(DefaultRetail()), 0x211acf251897f96d},
		"Retail top":  {retailTop, 0xf8b299fcf7c0f496},
		"Kosarak":     {kosarak, 0x3a955e9d67c901ef},
		"Kosarak top": {kosarakTop, 0x452a89ca3f163656},
		"MSNBC":       {MSNBC(DefaultMSNBC()), 0xcbd40dcb3bba7ad7},
	}
}

// TestSetLayoutMatchesParent pins the generators and TopM element for
// element against the output they had with a slice per set.
func TestSetLayoutMatchesParent(t *testing.T) {
	for name, c := range layoutCases(t) {
		if got := hashSets(c.d); got != c.hash {
			t.Errorf("%s: sets hash to %#x, want %#x", name, got, c.hash)
		}
	}
}

// TestSetsDoNotShareCapacity appends to every user's set in turn and
// checks that the next user's set is untouched: a set carved from the
// shared backing array must have no capacity past its own items.
func TestSetsDoNotShareCapacity(t *testing.T) {
	for name, c := range layoutCases(t) {
		sets := c.d.Sets
		for u := 0; u+1 < len(sets); u++ {
			next := append([]int(nil), sets[u+1]...)
			sets[u] = append(sets[u], -1)
			for j, i := range next {
				if sets[u+1][j] != i {
					t.Fatalf("%s: appending to user %d's set wrote into user %d's", name, u, u+1)
				}
			}
		}
	}
}

// hashItems is FNV-1a over the domain, the user count, and every item in
// order.
func hashItems(d *SingleItem) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range append([]int{d.M, len(d.Items)}, d.Items...) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSingleItemsMatchParent pins the single-item datasets, each against
// the hash of its output computed before Float64, IntN and the alias draw
// were written out on the owned generator step and before the set
// generators carved chunks: batch_item's input at its seed and the
// held-out one, the Uniform set, and the first-item projections of
// Kosarak and MSNBC (which dropped its per-user map for held stamps).
func TestSingleItemsMatchParent(t *testing.T) {
	for _, c := range []struct {
		name string
		d    *SingleItem
		hash uint64
	}{
		{"PowerLawSingle seed 1", PowerLawSingle(1_000_000, 1024, 2, 1), 0x7d737378e9645bd0},
		{"PowerLawSingle seed 20260928", PowerLawSingle(1_000_000, 1024, 2, 20260928), 0x2d2b18a604b94d68},
		{"UniformSingle", UniformSingle(100_000, 1000, 1), 0xfc58ca415d2a123d},
		{"Kosarak first items", Kosarak(DefaultKosarak()).FirstItems(), 0x2639c606d52c6fc0},
		{"MSNBC first items", MSNBC(DefaultMSNBC()).FirstItems(), 0xfaef1b05ee9dbe71},
	} {
		if got := hashItems(c.d); got != c.hash {
			t.Errorf("%s: items hash to %#x, want %#x", c.name, got, c.hash)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	if err := (&SingleItem{Items: []int{5}, M: 5}).Validate(); err == nil {
		t.Error("out-of-range item accepted")
	}
	if err := (&SingleItem{Items: nil, M: 0}).Validate(); err == nil {
		t.Error("zero domain accepted")
	}
	if err := (&SetValued{Sets: [][]int{{1, 1}}, M: 3}).Validate(); err == nil {
		t.Error("duplicate accepted")
	}
	if err := (&SetValued{Sets: [][]int{{-1}}, M: 3}).Validate(); err == nil {
		t.Error("negative item accepted")
	}
	// The same item in two users' sets is no duplicate, under the dense
	// stamps (domain no larger than the items held) and the sparse ones.
	for _, m := range []int{3, math.MaxInt} {
		if err := (&SetValued{Sets: [][]int{{0, 2}, {2, 0}, {}, {1, 2}}, M: m}).Validate(); err != nil {
			t.Errorf("M=%d: valid sets rejected: %v", m, err)
		}
		if err := (&SetValued{Sets: [][]int{{0, 2}, {1}, {2, 1, 2}}, M: m}).Validate(); err == nil {
			t.Errorf("M=%d: duplicate in a later set accepted", m)
		}
	}
}

func TestGobRoundTrip(t *testing.T) {
	d := Kosarak(KosarakConfig{Users: 500, Pages: 100, ZipfS: 1.5, MeanClicks: 5, Seed: 1})
	path := filepath.Join(t.TempDir(), "sets.gob")
	if err := SaveSets(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSets(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != d.N() || got.M != d.M {
		t.Fatalf("shape changed: %d/%d vs %d/%d", got.N(), got.M, d.N(), d.M)
	}
	for u := range d.Sets {
		if len(got.Sets[u]) != len(d.Sets[u]) {
			t.Fatalf("user %d set changed", u)
		}
	}
	if _, err := LoadSets(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestTransactionsRoundTrip(t *testing.T) {
	d := &SetValued{Sets: [][]int{{0, 2}, {}, {1}}, M: 4}
	var buf bytes.Buffer
	if err := WriteTransactions(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTransactions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.M != 4 || got.N() != 3 {
		t.Fatalf("shape %d/%d", got.N(), got.M)
	}
	if len(got.Sets[0]) != 2 || got.Sets[0][1] != 2 || len(got.Sets[1]) != 0 {
		t.Fatalf("sets=%v", got.Sets)
	}
}

func TestReadTransactionsInferDomain(t *testing.T) {
	got, err := ReadTransactions(bytes.NewBufferString("1 5\n0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got.M != 6 {
		t.Fatalf("inferred M=%d want 6", got.M)
	}
}

func TestReadTransactionsErrors(t *testing.T) {
	if _, err := ReadTransactions(bytes.NewBufferString("1 x\n")); err == nil {
		t.Error("bad token accepted")
	}
	if _, err := ReadTransactions(bytes.NewBufferString("# m=zz\n1\n")); err == nil {
		t.Error("bad domain comment accepted")
	}
	if _, err := ReadTransactions(bytes.NewBufferString("# m=2\n5\n")); err == nil {
		t.Error("item outside declared domain accepted")
	}
}
