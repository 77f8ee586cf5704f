package community

import (
	"reflect"
	"testing"
	"testing/quick"

	"lcrb/internal/rng"
)

func TestFromAssignmentDenseRenumber(t *testing.T) {
	p, err := FromAssignment([]int32{7, 7, 3, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if p.Count() != 3 {
		t.Fatalf("Count = %d, want 3", p.Count())
	}
	// First-appearance order: 7 -> 0, 3 -> 1, 9 -> 2.
	want := []int32{0, 0, 1, 0, 2}
	if !reflect.DeepEqual(p.Assign(), want) {
		t.Fatalf("Assign = %v, want %v", p.Assign(), want)
	}
	if !reflect.DeepEqual(p.Sizes(), []int32{3, 1, 1}) {
		t.Fatalf("Sizes = %v", p.Sizes())
	}
}

func TestFromAssignmentRejectsNegative(t *testing.T) {
	if _, err := FromAssignment([]int32{0, -1}); err == nil {
		t.Fatal("negative community accepted")
	}
}

func TestSingletons(t *testing.T) {
	p := Singletons(4)
	if p.Count() != 4 || p.NumNodes() != 4 {
		t.Fatalf("Count=%d NumNodes=%d", p.Count(), p.NumNodes())
	}
	for u := int32(0); u < 4; u++ {
		if p.Of(u) != u || p.Size(u) != 1 {
			t.Fatalf("node %d: community %d size %d", u, p.Of(u), p.Size(u))
		}
	}
}

func TestMembers(t *testing.T) {
	p, err := FromAssignment([]int32{0, 1, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Members(0); !reflect.DeepEqual(got, []int32{0, 2, 4}) {
		t.Fatalf("Members(0) = %v", got)
	}
	if got := p.Members(1); !reflect.DeepEqual(got, []int32{1, 3}) {
		t.Fatalf("Members(1) = %v", got)
	}
}

func TestInSame(t *testing.T) {
	p, err := FromAssignment([]int32{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !p.InSame(0, 1) || p.InSame(0, 2) {
		t.Fatal("InSame gave wrong answers")
	}
}

func TestClosestBySize(t *testing.T) {
	// Sizes: community 0 -> 3, community 1 -> 1, community 2 -> 2.
	p, err := FromAssignment([]int32{0, 0, 0, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		want   int32
		expect int32
	}{
		{3, 0},
		{1, 1},
		{2, 2},
		{100, 0},
		{0, 1},
	}
	for _, tt := range tests {
		if got := p.ClosestBySize(tt.want); got != tt.expect {
			t.Errorf("ClosestBySize(%d) = %d, want %d", tt.want, got, tt.expect)
		}
	}
}

func TestValidate(t *testing.T) {
	p, err := FromAssignment([]int32{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(3); err != nil {
		t.Fatalf("Validate(3) = %v", err)
	}
	if err := p.Validate(4); err == nil {
		t.Fatal("Validate(4) accepted wrong node count")
	}
}

func TestAssignReturnsCopy(t *testing.T) {
	p, err := FromAssignment([]int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	a := p.Assign()
	a[0] = 99
	if p.Of(0) == 99 {
		t.Fatal("Assign exposed internal state")
	}
	s := p.Sizes()
	s[0] = 99
	if p.Size(0) == 99 {
		t.Fatal("Sizes exposed internal state")
	}
}

// randomPartitionPair draws two random partitions of the same n nodes.
func randomPartitionPair(seed uint64) (*Partition, *Partition) {
	src := rng.New(seed)
	n := src.Intn(40) + 2
	k1 := int32(src.Intn(n)) + 1
	k2 := int32(src.Intn(n)) + 1
	a := make([]int32, n)
	b := make([]int32, n)
	for i := range a {
		a[i] = src.Int32n(k1)
		b[i] = src.Int32n(k2)
	}
	pa, err := FromAssignment(a)
	if err != nil {
		panic(err)
	}
	pb, err := FromAssignment(b)
	if err != nil {
		panic(err)
	}
	return pa, pb
}

// TestFromAssignmentRoundTrip checks that re-normalizing an assignment is
// a fixed point: FromAssignment(p.Assign()) == p.
func TestFromAssignmentRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	if err := quick.Check(func(seed uint64) bool {
		a, _ := randomPartitionPair(seed)
		again, err := FromAssignment(a.Assign())
		if err != nil {
			return false
		}
		if again.Count() != a.Count() {
			return false
		}
		aa, ba := a.Assign(), again.Assign()
		for i := range aa {
			if aa[i] != ba[i] {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionSizesConsistent checks the size table always sums to n and
// matches Members lengths.
func TestPartitionSizesConsistent(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(func(seed uint64) bool {
		a, _ := randomPartitionPair(seed)
		var total int32
		for c := int32(0); c < a.Count(); c++ {
			if int32(len(a.Members(c))) != a.Size(c) {
				return false
			}
			total += a.Size(c)
		}
		return total == a.NumNodes()
	}, cfg); err != nil {
		t.Fatal(err)
	}
}
