//go:build !amd64

package mech

import "idldp/internal/rng"

// haveKernel is false where no plane kernel is written: fill takes the Go
// twin, planesTwin.
const haveKernel = false

func planesAVX2(st *rng.Xoshiro4, planes *[4 * 64]uint64, live *uint64, depth *uint8, groups int, out *uint64, last *[4]uint64) {
	panic("mech: no plane kernel on this architecture")
}
