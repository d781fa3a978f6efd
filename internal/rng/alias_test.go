package rng_test

import (
	"fmt"
	"testing"

	"idldp/internal/dist"
	"idldp/internal/rng"
)

// refAlias is the naive alias table Alias is pinned against: Vose's
// construction kept in float probabilities, and a draw of IntN(k) then
// Float64() < prob[i]. roundOff counts the cells left in the small list
// only through floating point round-off, full counts the cells with
// prob = 1 from either list.
type refAlias struct {
	prob           []float64
	alias          []int
	roundOff, full int
}

func newRefAlias(weights []float64) *refAlias {
	k := len(weights)
	var total float64
	for _, w := range weights {
		total += w
	}
	a := &refAlias{prob: make([]float64, k), alias: make([]int, k)}
	scaled := make([]float64, k)
	var small, large []int
	for i, w := range weights {
		scaled[i] = w * float64(k) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[l] = scaled[l]
		a.alias[l] = g
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	for _, g := range large {
		a.prob[g], a.alias[g] = 1, g
	}
	for _, l := range small {
		a.prob[l], a.alias[l] = 1, l
	}
	a.roundOff, a.full = len(small), len(small)+len(large)
	return a
}

func (a *refAlias) draw(s *rng.Source) int {
	i := s.IntN(len(a.prob))
	if s.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// TestAliasMatchesReferenceDraws pins Alias against the naive table: the
// same index on every one of 10⁶ draws, with the Source left at the same
// state (the next word agrees), for the workloads' power laws, a k that
// is not a power of two (IntN's multiply-shift path), a uniform table
// whose every cell has prob = 1, and tables that leave round-off cells.
func TestAliasMatchesReferenceDraws(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
		// wantRoundOff: the case exists for its round-off cells.
		wantRoundOff bool
	}{
		{"PowerLaw(1024, 2)", dist.PowerLaw(1024, 2), false},
		{"PowerLaw(4096, 1.2)", dist.PowerLaw(4096, 1.2), false},
		{"PowerLaw(2000, 1.2)", dist.PowerLaw(2000, 1.2), false},
		{"Zipf(17, 1.1, 1)", dist.Zipf(17, 1.1, 1), false},
		{"Uniform(1000)", dist.Uniform(1000), false},
		{"round-off k=3", []float64{0.1, 0.2, 0.7}, true},
		{"round-off k=8", []float64{1, 1, 1, 1, 1, 1, 1, 3}, true},
	}
	for seed, c := range cases {
		ref, a := newRefAlias(c.weights), rng.NewAlias(c.weights)
		if ref.full == 0 || (c.wantRoundOff && ref.roundOff == 0) {
			t.Fatalf("%s: the reference has %d full cells, %d from round-off: the case covers nothing", c.name, ref.full, ref.roundOff)
		}
		s, rs := rng.New(uint64(seed)), rng.New(uint64(seed))
		for d := 0; d < 1_000_000; d++ {
			if got, want := a.Draw(s), ref.draw(rs); got != want {
				t.Fatalf("%s: draw %d is %d, the reference's %d", c.name, d, got, want)
			}
		}
		if s.Uint64() != rs.Uint64() {
			t.Fatalf("%s: after 10⁶ draws the Source left the reference's stream", c.name)
		}
	}
}

// BenchmarkAliasDraw times one draw from batch_set's popularity table
// (4,096 items, a power of two) and from Retail's default one (2,000
// items, the multiply-shift path), against the naive reference draw.
func BenchmarkAliasDraw(b *testing.B) {
	for _, m := range []int{4096, 2000} {
		w := dist.PowerLaw(m, 1.2)
		a, ref := rng.NewAlias(w), newRefAlias(w)
		for _, d := range []struct {
			name string
			draw func(*rng.Source) int
		}{{"cells", a.Draw}, {"reference", ref.draw}} {
			b.Run(fmt.Sprintf("%s/k=%d", d.name, m), func(b *testing.B) {
				s, sum := rng.New(1), 0
				for i := 0; i < b.N; i++ {
					sum += d.draw(s)
				}
				if sum < 0 {
					b.Fatal("negative index")
				}
			})
		}
	}
}
