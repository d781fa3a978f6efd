// Package cpuid finds once at start-up which vector kernels this CPU and
// its operating system run. internal/mech's plane sampler and
// internal/bitvec's lane fold take the widest kernel Level allows, else
// their pure-Go twins, which write the same output everywhere.
package cpuid

// The kernel levels, each including the ones before it. AVX512 is
// AVX-512 F, DQ and VL, of which the kernels use only the 256-bit forms:
// no 512-bit register costs the CPU its higher clock licence.
const (
	Go = iota
	AVX2
	AVX512
)

// Level is the widest kernel level this CPU runs.
var Level = level()
