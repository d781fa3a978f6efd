package cpuid

func level() int // CPUID and XGETBV
