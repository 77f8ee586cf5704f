package rrset

// SetArena forces ix's gain kernel for tests, whatever the density rule in
// NewIndex chose: on fills the bitset arena from the CSR lists, off drops
// it so that Cover serves counts from exact gains it decrements.
func SetArena(ix *Index, on bool) {
	ix.Arena = nil
	if on && len(ix.Nodes) > 0 {
		ix.buildArena(1)
	}
}
