package mech

import (
	"idldp/internal/cpuid"
	"idldp/internal/rng"
)

// planesKernel is fill's plane sampler on the AVX2 or AVX512 kernel.
func (u *UE) planesKernel(r *rng.Source, w []uint64, level int) {
	var last [4]uint64
	n := len(u.planes)
	if level == cpuid.AVX512 {
		a := r.Uint64()
		planesAVX512(a, r.Uint64(), &u.planes[0], &u.live[0], &u.depth[0], n, &w[0], &last)
	} else {
		var st rng.Xoshiro4
		st.Seed(r)
		planesAVX2(&st, &u.planes[0], &u.live[0], &u.depth[0], n, &w[0], &last)
	}
	copy(w[4*(n-1):], last[:])
}

// planesAVX2 is the plane sampler's AVX2 kernel: it draws the plane words
// of groups groups, the four words of a group from the four streams st,
// which it steps in lockstep, one 256-bit register a state row. A group
// draws the planes of its prefix depth[g] (at most 64) unconditionally,
// then one more while a lane of any of its words is undecided; each word
// takes planeWord's rule on its own stream. It writes the words of every
// group but the last to out, four a group, and the last group's to last,
// so that out need not hold a whole last group. st is read, not advanced.
// groups must be at least 1.
//
//go:noescape
func planesAVX2(st *rng.Xoshiro4, planes *[4 * 64]uint64, live *uint64, depth *uint8, groups int, out *uint64, last *[4]uint64)

// planesAVX512 is planesAVX2 on AVX-512VL, the streams seeded in registers
// from the Source's next two words a and b as seedAVX512 seeds st.
//
//go:noescape
func planesAVX512(a, b uint64, planes *[4 * 64]uint64, live *uint64, depth *uint8, groups int, out *uint64, last *[4]uint64)

//go:noescape
func seedAVX512(a, b uint64, st *rng.Xoshiro4)
