//go:build !amd64

package cpuid

func level() int { return Go }
