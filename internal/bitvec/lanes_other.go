//go:build !amd64

package bitvec

// NewLanes leaves kernel false here, so foldBlock never calls this.
func foldAVX512(*uint64, *[lanePlanes][4]uint64, int) { panic("bitvec: no fold kernel") }
