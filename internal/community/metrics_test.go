package community

import (
	"math"
	"testing"
	"testing/quick"
)

// TestNMISymmetric checks NMI(a, b) == NMI(b, a) on random partitions.
func TestNMISymmetric(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	if err := quick.Check(func(seed uint64) bool {
		a, b := randomPartitionPair(seed)
		return math.Abs(NMI(a, b)-NMI(b, a)) < 1e-12
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestNMIRange checks NMI stays in [0, 1] and self-NMI is 1.
func TestNMIRange(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	if err := quick.Check(func(seed uint64) bool {
		a, b := randomPartitionPair(seed)
		v := NMI(a, b)
		if v < 0 || v > 1 {
			return false
		}
		return NMI(a, a) > 0.999999
	}, cfg); err != nil {
		t.Fatal(err)
	}
}
