package bitvec

// foldAVX512 is foldGo on AVX-512VL, four word columns a step: it adds the
// 16 rows at stage, one every 4·cols words, into cols columns of planes.
//
//go:noescape
func foldAVX512(stage *uint64, planes *[lanePlanes][4]uint64, cols int)
