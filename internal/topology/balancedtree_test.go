package topology

import (
	"errors"
	"slices"
	"testing"
)

// TestBalancedTree covers the scale layout: exact member counts, even
// spread with the remainder nearest the root, and clean errors (not
// panics) on shapes whose region count exceeds — or integer-overflows
// past — the member total.
func TestBalancedTree(t *testing.T) {
	topo, err := BalancedTree(4, 3, 1008)
	if err != nil {
		t.Fatal(err)
	}
	if depth := slices.Max(topo.depth); topo.NumNodes() != 1008 || topo.NumRegions() != 21 || depth != 2 {
		t.Fatalf("nodes=%d regions=%d depth=%d", topo.NumNodes(), topo.NumRegions(), depth)
	}
	for r := 0; r < topo.NumRegions(); r++ {
		if got := topo.RegionSize(RegionID(r)); got != 48 {
			t.Fatalf("region %d size %d, want 48", r, got)
		}
	}

	// Remainder goes to the regions nearest the root.
	topo, err = BalancedTree(2, 2, 8) // 3 regions, 8 members -> 3,3,2
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 3, 2}
	for r, n := range want {
		if got := topo.RegionSize(RegionID(r)); got != n {
			t.Fatalf("region %d size %d, want %d", r, got, n)
		}
	}

	for _, bad := range []struct{ branch, levels, total int }{
		{0, 1, 10},   // no branch
		{2, 0, 10},   // no levels
		{2, 3, 6},    // 7 regions > 6 members
		{2, 64, 100}, // geometric region count overflows int; must error, not panic
		{1 << 40, 2, 100},
	} {
		if _, err := BalancedTree(bad.branch, bad.levels, bad.total); !errors.Is(err, errInvalid) {
			t.Fatalf("BalancedTree(%d, %d, %d) = %v, want errInvalid", bad.branch, bad.levels, bad.total, err)
		}
	}
}
