//go:build !amd64

package mech

import "idldp/internal/rng"

// cpuid.Level is cpuid.Go here, so fill never calls this.
func (u *UE) planesKernel(*rng.Source, []uint64, int) { panic("mech: no plane kernel") }
