package mech

import (
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"

	"idldp/internal/budget"
	"idldp/internal/cpuid"
	"idldp/internal/notion"
	"idldp/internal/opt"
	"idldp/internal/rng"
)

// levelNames names the kernel levels fill takes, indexed by cpuid level.
var levelNames = [...]string{cpuid.Go: "the Go twin", cpuid.AVX2: "the AVX2 kernel", cpuid.AVX512: "the AVX-512 kernel"}

// TestKernelChosen pins the start-up choice against what the operating
// system says the CPU has: on Linux, /proc/cpuinfo lists avx2 exactly when
// fill takes a kernel, and avx512f, avx512dq and avx512vl as well exactly
// when it takes the AVX-512 one, so on such a host the tests fail here if
// the widest kernel was not the path taken; elsewhere there is no kernel.
func TestKernelChosen(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if cpuid.Level != cpuid.Go {
			t.Fatalf("a plane kernel (level %d) chosen on %s", cpuid.Level, runtime.GOARCH)
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to check the choice against: %v", err)
	}
	has := func(flag string) bool {
		return regexp.MustCompile(`(?m)^flags\s*:.*\b` + flag + `\b`).Match(info)
	}
	want := cpuid.Go
	if has("avx2") {
		want = cpuid.AVX2
		if has("avx512f") && has("avx512dq") && has("avx512vl") {
			want = cpuid.AVX512
		}
	}
	if cpuid.Level != want {
		t.Fatalf("the CPU's flags call for %s; fill takes %s", levelNames[want], levelNames[cpuid.Level])
	}
}

// TestKeepIsBernoulli: keep's integer threshold draws, draw for draw,
// what r.Bernoulli(A[k]) draws on the same stream, for every keep
// probability of the §VII shapes (Opt0 for items, Opt1 for IDUE-PS, whose
// padding bits reuse a level's), of the uniform mechanisms, and at the
// edges of the 2⁻⁵³ grid.
func TestKeepIsBernoulli(t *testing.T) {
	asgn, err := budget.Assign(1024, budget.Default(1.0), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var as []float64
	for _, model := range []opt.Model{opt.Opt0, opt.Opt1} {
		p, err := opt.Solve(model, asgn.LevelEpsAll(), asgn.LevelCounts(), notion.MinID{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		as = append(as, p.A...)
	}
	for _, eps := range []float64{0.5, 1, 4} {
		rappor, _ := NewRAPPOR(eps, 1)
		as = append(as, rappor.A[0])
	}
	as = append(as, 0.5, 0x1p-53, 3*0x1p-54, 1e-300, math.Nextafter(0.5, 0), math.Nextafter(1, 0))
	u, err := NewUE(as, as)
	if err != nil {
		t.Fatal(err)
	}
	r, ref := rng.New(20260928), rng.New(20260928)
	w := make([]uint64, (len(as)+63)/64)
	for rep := 0; rep < 4000; rep++ {
		for k, a := range as {
			w[k>>6] ^= uint64(rep&1) << uint(k&63) // either prior value of the bit
			u.keep(k, r, w)
			if got, want := w[k>>6]>>uint(k&63)&1 == 1, ref.Bernoulli(a); got != want {
				t.Fatalf("A = %v, draw %d: keep set the bit %v, Bernoulli says %v", a, rep, got, want)
			}
		}
	}
	if r.Uint64() != ref.Uint64() {
		t.Fatal("keep and Bernoulli left their streams in different places")
	}
}

// FuzzPlanesKernelMatchesTwin drives fill through every plane kernel the
// CPU has and through the Go twin on plans no constructor builds: 1 to 8
// groups, the last one cut short by up to three words, words with no, one,
// about a quarter or all lanes live, random thresholds (with all-ones and
// all-zero ones among them) and group prefixes from 0 to 64 planes. All
// must write the same words over garbage and leave the Source in the same
// place.
func FuzzPlanesKernelMatchesTwin(f *testing.F) {
	if cpuid.Level == cpuid.Go {
		f.Skip("no plane kernel on this CPU: the twin is the only sampler")
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
		twin, garbage := make([]uint64, words), r.Uint64()
		for wi := range twin {
			twin[wi] = garbage
		}
		rt := rng.New(^seed)
		u.fill(rt, twin, cpuid.Go)
		next := rt.Uint64()
		for level := cpuid.AVX2; level <= cpuid.Level; level++ {
			kernel := make([]uint64, words)
			for wi := range kernel {
				kernel[wi] = ^garbage
			}
			rk := rng.New(^seed)
			u.fill(rk, kernel, level)
			for wi := range kernel {
				if kernel[wi] != twin[wi] {
					t.Fatalf("word %d of %d: %s wrote %#016x, the twin %#016x", wi, words, levelNames[level], kernel[wi], twin[wi])
				}
			}
			if got := rk.Uint64(); got != next {
				t.Fatalf("the Source stands elsewhere after %s than after the twin (next draw %#x, %#x)", levelNames[level], got, next)
			}
		}
	})
}
