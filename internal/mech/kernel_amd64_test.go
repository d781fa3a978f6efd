package mech

import (
	"testing"

	"idldp/internal/cpuid"
	"idldp/internal/rng"
)

// TestSeedAVX512MatchesSeed: the AVX-512 kernel's in-register seeding
// derives from the Source's next two words exactly the four streams
// rng.Xoshiro4.Seed does, the seeding the AVX2 kernel and the twin read.
func TestSeedAVX512MatchesSeed(t *testing.T) {
	if cpuid.Level < cpuid.AVX512 {
		t.Skip("no AVX-512 kernel on this CPU")
	}
	for _, seed := range []uint64{0, 1, 2, 20260928, ^uint64(0)} {
		r, s := rng.New(seed), rng.New(seed)
		for rep := 0; rep < 100; rep++ {
			var want, got rng.Xoshiro4
			want.Seed(r)
			a := s.Uint64()
			seedAVX512(a, s.Uint64(), &got)
			if got != want {
				t.Fatalf("seed %d report %d: in-register streams %x, Xoshiro4.Seed %x", seed, rep, got, want)
			}
		}
	}
	// Seed words at the wrap-around edges of the stream offsets.
	for _, ab := range [][2]uint64{{0, 0}, {^uint64(0), ^uint64(0)}, {0x61c8864680b583eb, 1}} {
		var got rng.Xoshiro4
		seedAVX512(ab[0], ab[1], &got)
		for i := range 4 {
			if g, w := got.Lane(i), seedLane(ab[0], ab[1], i); g != w {
				t.Fatalf("words %#x, %#x stream %d: %v, want %v", ab[0], ab[1], i, g, w)
			}
		}
	}
}

// seedLane is stream i of Xoshiro4.Seed from the words a and b, by its
// documented rule: SplitMix64 outputs 2i+1 and 2i+2 from a, then from b.
func seedLane(a, b uint64, i int) rng.Xoshiro {
	const golden = 0x9e3779b97f4a7c15
	mix := func(x uint64) uint64 {
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		return x ^ x>>31
	}
	o := uint64(2*i+1) * golden
	var x rng.Xoshiro4
	x[0][0], x[1][0], x[2][0], x[3][0] = mix(a+o), mix(a+o+golden), mix(b+o), mix(b+o+golden)
	return x.Lane(0)
}
