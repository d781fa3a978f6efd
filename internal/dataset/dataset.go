// Package dataset provides the workloads of the evaluation section (§VII):
// the two synthetic single-item datasets (Power-law and Uniform) exactly as
// described, and simulated stand-ins for the three public datasets
// (Kosarak, Retail, MSNBC) whose published statistics drive the generators.
// The environment is offline, so the real downloads are replaced by seeded
// synthetic equivalents that match the frequency skew and set-size
// distributions the figures depend on; see DESIGN.md §2.6 for the
// substitution rationale.
package dataset

import (
	"cmp"
	"fmt"
	"slices"

	"idldp/internal/dist"
	"idldp/internal/rng"
)

// SingleItem is a dataset where each user holds exactly one item from
// {0..M-1}.
type SingleItem struct {
	Items []int
	M     int
}

// N returns the number of users.
func (d *SingleItem) N() int { return len(d.Items) }

// TrueCounts returns the ground-truth frequency c*_i of every item
// (Eq. 1).
func (d *SingleItem) TrueCounts() []float64 {
	out := make([]float64, d.M)
	for _, x := range d.Items {
		out[x]++
	}
	return out
}

// Validate checks every item is in range.
func (d *SingleItem) Validate() error {
	if d.M <= 0 {
		return fmt.Errorf("dataset: domain size %d must be positive", d.M)
	}
	for u, x := range d.Items {
		if x < 0 || x >= d.M {
			return fmt.Errorf("dataset: user %d holds item %d outside [0,%d)", u, x, d.M)
		}
	}
	return nil
}

// SetValued is a dataset where each user holds a set of distinct items
// from {0..M-1}. Empty sets are allowed (the PS protocol pads them).
//
// Layout: the sets the generators and TopM build are carved from shared
// backing arrays (the generators' fixed chunks, TopM's one array), each
// with its capacity capped at its length (flat[lo:hi:hi]), so appending to
// one user's set reallocates it rather than writing into the next user's.
// Shared arrays leave no garbage interleaved with the sets: 200k Retail
// baskets cut to their top 1,024 items peak at ~46 MB resident in
// batch_set, against ~90 with a slice per set grown by append.
type SetValued struct {
	Sets [][]int
	M    int
}

// N returns the number of users.
func (d *SetValued) N() int { return len(d.Sets) }

// TrueCounts returns the ground-truth frequency c*_i of every item: the
// number of users whose set contains i (Eq. 1).
func (d *SetValued) TrueCounts() []float64 {
	out := make([]float64, d.M)
	for _, s := range d.Sets {
		for _, i := range s {
			out[i]++
		}
	}
	return out
}

// Validate checks every set holds distinct in-range items. One stamp
// per item, held[i] == u+1 once user u's set has shown i, serves every
// set, so no set builds a map of its own. The stamps are an array over the
// domain unless the domain outnumbers the items the sets hold (a "# m="
// comment may claim any int), where a map of the same stamps keeps the
// memory to the items actually held.
func (d *SetValued) Validate() error {
	if d.M <= 0 {
		return fmt.Errorf("dataset: domain size %d must be positive", d.M)
	}
	total := 0
	for _, s := range d.Sets {
		total += len(s)
	}
	var dense []int
	var sparse map[int]int
	if d.M <= total {
		dense = make([]int, d.M)
	} else {
		sparse = make(map[int]int)
	}
	for u, s := range d.Sets {
		for _, i := range s {
			if i < 0 || i >= d.M {
				return fmt.Errorf("dataset: user %d holds item %d outside [0,%d)", u, i, d.M)
			}
			var last int
			if dense != nil {
				last, dense[i] = dense[i], u+1
			} else {
				last, sparse[i] = sparse[i], u+1
			}
			if last == u+1 {
				return fmt.Errorf("dataset: user %d holds duplicate item %d", u, i)
			}
		}
	}
	return nil
}

// MeanSetSize returns the average items per user.
func (d *SetValued) MeanSetSize() float64 {
	if len(d.Sets) == 0 {
		return 0
	}
	var total int
	for _, s := range d.Sets {
		total += len(s)
	}
	return float64(total) / float64(len(d.Sets))
}

// FirstItems projects the dataset to single-item form by keeping each
// user's first item, as the paper does to obtain the single-item Kosarak
// variant for Fig. 4(a). Users with empty sets are dropped.
func (d *SetValued) FirstItems() *SingleItem {
	items := make([]int, 0, len(d.Sets))
	for _, s := range d.Sets {
		if len(s) > 0 {
			items = append(items, s[0])
		}
	}
	return &SingleItem{Items: items, M: d.M}
}

// TopM restricts the dataset to the m most frequent items, relabelled
// 0..m-1 in descending frequency order; other items are dropped from every
// set. LDP frequency-estimation papers evaluate UE-family mechanisms on
// such reduced domains because report length is linear in the domain size.
// The kept items' counts size the one backing array the new sets share.
func (d *SetValued) TopM(m int) (*SetValued, error) {
	if m <= 0 || m > d.M {
		return nil, fmt.Errorf("dataset: TopM(%d) out of range [1,%d]", m, d.M)
	}
	counts := make([]int, d.M)
	for _, s := range d.Sets {
		for _, i := range s {
			counts[i]++
		}
	}
	idx := make([]int, d.M)
	for i := range idx {
		idx[i] = i
	}
	// Count descending, then index ascending: a total order.
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(counts[b], counts[a]), cmp.Compare(a, b))
	})
	// remap[i] is the new label of item i plus one, 0 for a dropped item;
	// the kept items' counts add up to the backing array's length.
	remap := make([]int, d.M)
	total := 0
	for newID, oldID := range idx[:m] {
		remap[oldID] = newID + 1
		total += counts[oldID]
	}
	flat := make([]int, 0, total)
	out := &SetValued{Sets: make([][]int, len(d.Sets)), M: m}
	for u, s := range d.Sets {
		lo := len(flat)
		for _, i := range s {
			if ni := remap[i]; ni != 0 {
				flat = append(flat, ni-1)
			}
		}
		if hi := len(flat); hi > lo {
			out.Sets[u] = flat[lo:hi:hi]
		}
	}
	return out, nil
}

// PowerLawSingle generates the paper's Power-law synthetic dataset: n
// users each drawing one item from a power-law with the given exponent
// over {0..m-1} (defaults in §VII: n = 100000, m = 100, α = 2).
func PowerLawSingle(n, m int, alpha float64, seed uint64) *SingleItem {
	s := dist.NewSampler(dist.PowerLaw(m, alpha))
	r := rng.New(seed)
	return &SingleItem{Items: s.DrawN(r, n), M: m}
}

// UniformSingle generates the paper's Uniform synthetic dataset: n users
// each drawing one item uniformly from {0..m-1} (§VII: n = 100000,
// m = 1000).
func UniformSingle(n, m int, seed uint64) *SingleItem {
	s := dist.NewSampler(dist.Uniform(m))
	r := rng.New(seed)
	return &SingleItem{Items: s.DrawN(r, n), M: m}
}

// genSets draws n item-sets: user u's set size comes from sizeOf and its
// members are distinct draws from the popularity sampler.
func genSets(n, m int, pop *dist.Sampler, sizeOf func(*rng.Source) int, seed uint64) *SetValued {
	r := rng.New(seed)
	c := &carver{sets: make([][]int, 0, n), held: make([]int, m)}
	for range n {
		size := min(sizeOf(r), m)
		c.begin(size)
		// Rejection sampling of distinct items; bail out to sequential
		// fill if the popularity mass is too concentrated to make
		// progress (only reachable for tiny domains).
		for attempts := 0; c.len() < size && attempts < 50*size+100; attempts++ {
			c.add(pop.Draw(r))
		}
		for i := 0; c.len() < size && i < m; i++ {
			c.add(i)
		}
		c.end()
	}
	return &SetValued{Sets: c.sets, M: m}
}

// chunkInts is the size of the chunks a carver carves sets from.
const chunkInts = 64 << 10

// carver builds sets one after another in fixed chunks of chunkInts ints.
// A set starts a new chunk when the size it may reach does not fit, so no
// set straddles two chunks, nothing is copied, and every set keeps zero
// spare capacity. held[i] == len(sets)+1 marks item i as in the open set.
type carver struct {
	sets  [][]int
	chunk []int
	lo    int
	held  []int
}

// begin starts the next set, which will hold at most size items.
func (c *carver) begin(size int) {
	if cap(c.chunk)-len(c.chunk) < size {
		c.chunk = make([]int, 0, max(chunkInts, size))
	}
	c.lo = len(c.chunk)
}

// add puts item i in the set unless it is there already.
func (c *carver) add(i int) {
	if stamp := len(c.sets) + 1; c.held[i] != stamp {
		c.held[i] = stamp
		c.chunk = append(c.chunk, i)
	}
}

func (c *carver) len() int { return len(c.chunk) - c.lo }

func (c *carver) end() { c.sets = append(c.sets, c.chunk[c.lo:len(c.chunk):len(c.chunk)]) }
