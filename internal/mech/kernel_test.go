package mech

import (
	"os"
	"regexp"
	"runtime"
	"testing"

	"idldp/internal/rng"
)

// TestKernelChosen pins the start-up choice against what the operating
// system says the CPU has: on Linux, /proc/cpuinfo lists avx2 exactly when
// fill takes the AVX2 kernel, so on an AVX2 host the tests fail here if
// the kernel was not the path taken; elsewhere there is no kernel.
func TestKernelChosen(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if haveKernel {
			t.Fatalf("a plane kernel chosen on %s", runtime.GOARCH)
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to check the choice against: %v", err)
	}
	avx2 := regexp.MustCompile(`(?m)^flags\s*:.*\bavx2\b`).Match(info)
	if avx2 != haveKernel {
		t.Fatalf("the CPU lists avx2: %v; the AVX2 kernel chosen: %v", avx2, haveKernel)
	}
}

// FuzzPlanesKernelMatchesTwin drives fill through the AVX2 kernel and
// through its Go twin on plans no constructor builds: 1 to 8 groups, the
// last one cut short by up to three words, words with no, one, about a
// quarter or all lanes live, random thresholds (with all-ones and all-zero
// ones among them) and group prefixes from 0 to 64 planes. Both must write
// the same words over garbage and leave the Source in the same place.
func FuzzPlanesKernelMatchesTwin(f *testing.F) {
	if !haveKernel {
		f.Skip("no AVX2 kernel on this CPU: the twin is the only sampler")
	}
	f.Add(uint64(1), uint8(3), uint8(0), uint8(9), uint8(0xff))
	f.Add(uint64(2), uint8(4), uint8(3), uint8(64), uint8(0x1b))
	f.Add(uint64(3), uint8(0), uint8(1), uint8(0), uint8(0x55))
	f.Add(uint64(20260928), uint8(7), uint8(2), uint8(12), uint8(0xe4))
	f.Fuzz(func(t *testing.T, seed uint64, groups, cut, depth, mix uint8) {
		r := rng.New(seed)
		n := 1 + int(groups)%8
		words := 4*n - int(cut)%4
		u := &UE{live: make([]uint64, 4*n), depth: make([]uint8, n), planes: make([][4 * 64]uint64, n)}
		for g := range u.depth {
			u.depth[g] = uint8(r.IntN(int(depth)%65 + 1))
		}
		for wi := 0; wi < words; wi++ {
			switch mix >> (2 * (wi % 4)) & 3 {
			case 1:
				u.live[wi] = 1 << r.IntN(64)
			case 2:
				u.live[wi] = r.Uint64() & r.Uint64()
			case 3:
				u.live[wi] = ^uint64(0)
			}
			for lane := 0; lane < 64; lane++ {
				if u.live[wi]>>lane&1 == 0 {
					continue
				}
				T := r.Uint64()
				switch r.IntN(16) {
				case 0:
					T = ^uint64(0)
				case 1:
					T = 0
				}
				for j := 0; j < 64; j++ {
					u.planes[wi/4][4*j+wi%4] |= (T >> (63 - j) & 1) << lane
				}
			}
		}
		kernel, twin := make([]uint64, words), make([]uint64, words)
		for wi := range kernel {
			kernel[wi], twin[wi] = r.Uint64(), r.Uint64()
		}
		rk, rt := rng.New(^seed), rng.New(^seed)
		u.fill(rk, kernel, true)
		u.fill(rt, twin, false)
		for wi := range kernel {
			if kernel[wi] != twin[wi] {
				t.Fatalf("word %d of %d: the kernel wrote %#016x, the twin %#016x", wi, words, kernel[wi], twin[wi])
			}
		}
		if a, b := rk.Uint64(), rt.Uint64(); a != b {
			t.Fatalf("the Source stands elsewhere after the kernel than after the twin (next draw %#x, %#x)", a, b)
		}
	})
}
