package mech

import "idldp/internal/rng"

// haveKernel reports whether this CPU runs planesAVX2, decided once at
// start-up.
var haveKernel = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (CPUID leaves 1 and 7, XGETBV).
func hasAVX2() bool

// planesAVX2 is the plane sampler's kernel: it draws the plane words of
// groups groups, the four words of a group from the four streams st, which
// it steps in lockstep, one 256-bit register a state row. A group draws
// the planes of its prefix depth[g] (at most 64) unconditionally, then one
// more while a lane of any of its words is undecided; each word takes
// planeWord's rule on its own stream. It writes the words of every group
// but the last to out, four a group, and the last group's to last, so that
// out need not hold a whole last group. st is read, not advanced. groups
// must be at least 1.
//
//go:noescape
func planesAVX2(st *rng.Xoshiro4, planes *[4 * 64]uint64, live *uint64, depth *uint8, groups int, out *uint64, last *[4]uint64)
