package dataset

import (
	"idldp/internal/dist"
	"idldp/internal/rng"
)

// KosarakConfig parameterizes the simulated Kosarak click-stream dataset.
// The real dataset has ≈990k users, 41,270 pages, ≈8.1 clicks per user on
// a heavily skewed page-popularity curve. Defaults are scaled down for CI
// speed; pass FullScale() to match the published sizes.
type KosarakConfig struct {
	Users      int
	Pages      int
	ZipfS      float64 // popularity skew exponent
	MeanClicks float64
	Seed       uint64
}

// DefaultKosarak returns a CI-sized configuration preserving the shape of
// the real dataset (skew and per-user set sizes).
func DefaultKosarak() KosarakConfig {
	return KosarakConfig{Users: 20000, Pages: 2000, ZipfS: 1.5, MeanClicks: 8.1, Seed: 20140901}
}

// FullScale returns the configuration matching the published dataset
// statistics (≈990k users over 41,270 pages).
func (c KosarakConfig) FullScale() KosarakConfig {
	c.Users = 990002
	c.Pages = 41270
	return c
}

// Kosarak generates the simulated click-stream dataset: Zipf page
// popularity and geometric per-user click counts.
func Kosarak(c KosarakConfig) *SetValued {
	pop := dist.NewSampler(dist.Zipf(c.Pages, c.ZipfS, 2))
	p := 1 / c.MeanClicks
	return genSets(c.Users, c.Pages, pop, func(r *rng.Source) int {
		return r.Geometric(p)
	}, c.Seed)
}

// RetailConfig parameterizes the simulated Belgian retail-basket dataset:
// 88,162 baskets over 16,470 items, mean basket ≈10.3, power-law item
// popularity.
type RetailConfig struct {
	Users             int
	Items             int
	Alpha             float64 // popularity exponent
	SizeMu, SizeSigma float64 // log-normal basket-size parameters
	Seed              uint64
}

// DefaultRetail returns a CI-sized configuration.
func DefaultRetail() RetailConfig {
	// exp(mu + sigma²/2) ≈ 10.3 with sigma = 0.8 → mu ≈ 2.01.
	return RetailConfig{Users: 20000, Items: 2000, Alpha: 1.2, SizeMu: 2.01, SizeSigma: 0.8, Seed: 19991231}
}

// FullScale returns the configuration matching the published dataset.
func (c RetailConfig) FullScale() RetailConfig {
	c.Users = 88162
	c.Items = 16470
	return c
}

// Retail generates the simulated market-basket dataset.
func Retail(c RetailConfig) *SetValued {
	pop := dist.NewSampler(dist.PowerLaw(c.Items, c.Alpha))
	return genSets(c.Users, c.Items, pop, func(r *rng.Source) int {
		size := int(r.LogNormal(c.SizeMu, c.SizeSigma))
		if size < 1 {
			size = 1
		}
		if size > 76 { // the real dataset's maximum basket size
			size = 76
		}
		return size
	}, c.Seed)
}

// MSNBCConfig parameterizes the simulated MSNBC page-category dataset:
// ≈990k users over 17 page categories, an average of 5.7 page views per
// user with "extremely uneven" sequence lengths (§VII), where the same
// category may repeat within a sequence — the set-valued view deduplicates.
type MSNBCConfig struct {
	Users      int
	Categories int
	ZipfS      float64
	// Sequence lengths are a mixture of short (mean ShortMean) and long
	// (mean LongMean) geometric variables; LongFrac is the long fraction.
	ShortMean, LongMean, LongFrac float64
	Seed                          uint64
}

// DefaultMSNBC returns a CI-sized configuration. The category count (17)
// matches the UCI release; the paper rounds it to 14.
func DefaultMSNBC() MSNBCConfig {
	return MSNBCConfig{
		Users: 20000, Categories: 17, ZipfS: 1.1,
		ShortMean: 3, LongMean: 16, LongFrac: 0.2, Seed: 19990928,
	}
}

// FullScale returns the configuration matching the published dataset.
func (c MSNBCConfig) FullScale() MSNBCConfig {
	c.Users = 989818
	return c
}

// MSNBC generates the simulated page-category dataset: each user draws a
// sequence of category views (with repeats) and the dataset records the
// deduplicated set, exactly what the set-valued mechanisms consume.
func MSNBC(c MSNBCConfig) *SetValued {
	pop := dist.NewSampler(dist.Zipf(c.Categories, c.ZipfS, 1))
	r := rng.New(c.Seed)
	out := &carver{sets: make([][]int, 0, c.Users), held: make([]int, c.Categories)}
	for range c.Users {
		mean := c.ShortMean
		if r.Bernoulli(c.LongFrac) {
			mean = c.LongMean
		}
		length := r.Geometric(1 / mean)
		out.begin(min(length, c.Categories))
		for range length {
			out.add(pop.Draw(r))
		}
		out.end()
	}
	return &SetValued{Sets: out.sets, M: c.Categories}
}
