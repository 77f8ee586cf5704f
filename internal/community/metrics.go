package community

import (
	"math"
	"sort"
)

// NMI returns the normalized mutual information between two partitions of
// the same node set, in [0, 1]: 1 for identical partitions (up to label
// renaming), near 0 for independent ones. Used to compare detected
// communities against planted ones.
func NMI(a, b *Partition) float64 {
	n := len(a.assign)
	if n == 0 || n != len(b.assign) {
		return 0
	}
	// Joint counts.
	joint := make(map[[2]int32]int64, int(a.count))
	for i := 0; i < n; i++ {
		joint[[2]int32{a.assign[i], b.assign[i]}]++
	}
	// Sum the mutual information over sorted cell keys: float addition is
	// order-sensitive in the last bits, and map iteration order would make
	// NMI differ between reruns of the same partitions.
	cells := make([][2]int32, 0, len(joint))
	for key := range joint {
		cells = append(cells, key)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i][0] != cells[j][0] {
			return cells[i][0] < cells[j][0]
		}
		return cells[i][1] < cells[j][1]
	})
	fn := float64(n)
	var mi float64
	for _, key := range cells {
		pab := float64(joint[key]) / fn
		pa := float64(a.sizes[key[0]]) / fn
		pb := float64(b.sizes[key[1]]) / fn
		mi += pab * math.Log(pab/(pa*pb))
	}
	entropy := func(p *Partition) float64 {
		var h float64
		for _, s := range p.sizes {
			if s == 0 {
				continue
			}
			q := float64(s) / fn
			h -= q * math.Log(q)
		}
		return h
	}
	ha, hb := entropy(a), entropy(b)
	if ha == 0 && hb == 0 {
		return 1 // both partitions are a single community: identical
	}
	denom := (ha + hb) / 2
	if denom == 0 {
		return 0
	}
	v := mi / denom
	// Clamp tiny numeric excursions.
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
