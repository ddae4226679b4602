package topology

import (
	"testing"
	"testing/quick"
)

func TestSingleRegion(t *testing.T) {
	topo, err := SingleRegion(100)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNodes() != 100 || topo.NumRegions() != 1 {
		t.Fatalf("nodes=%d regions=%d", topo.NumNodes(), topo.NumRegions())
	}
	if topo.Sender() != 0 {
		t.Fatalf("sender = %d", topo.Sender())
	}
	if topo.Parent(0) != NoRegion {
		t.Fatal("single region has a parent")
	}
	if topo.RegionSize(0) != 100 {
		t.Fatalf("region size %d", topo.RegionSize(0))
	}
}

func TestSingleRegionRejectsEmpty(t *testing.T) {
	if _, err := SingleRegion(0); err == nil {
		t.Fatal("SingleRegion(0) succeeded")
	}
}

func TestChainHierarchy(t *testing.T) {
	topo, err := Chain(10, 20, 30)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNodes() != 60 {
		t.Fatalf("nodes = %d", topo.NumNodes())
	}
	if p := topo.Parent(1); p != 0 {
		t.Fatalf("parent of region 1 = %d", p)
	}
	if p := topo.Parent(2); p != 1 {
		t.Fatalf("parent of region 2 = %d", p)
	}
	// Dense IDs: region 1 spans nodes 10..29.
	if r := topo.RegionOf(10); r != 1 {
		t.Fatalf("region of node 10 = %d", r)
	}
	if r := topo.RegionOf(29); r != 1 {
		t.Fatalf("region of node 29 = %d", r)
	}
	if r := topo.RegionOf(30); r != 2 {
		t.Fatalf("region of node 30 = %d", r)
	}
}

func TestStar(t *testing.T) {
	topo, err := Star(5, 7, 9)
	if err != nil {
		t.Fatal(err)
	}
	for r := RegionID(1); r < 3; r++ {
		if topo.Parent(r) != 0 {
			t.Fatalf("parent of region %d = %d", r, topo.Parent(r))
		}
	}
}

func TestTreeShape(t *testing.T) {
	topo, err := BalancedTree(2, 3, 28) // 1 + 2 + 4 = 7 regions of 4
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumRegions() != 7 {
		t.Fatalf("regions = %d", topo.NumRegions())
	}
	if topo.NumNodes() != 28 {
		t.Fatalf("nodes = %d", topo.NumNodes())
	}
	wantParents := []RegionID{NoRegion, 0, 0, 1, 1, 2, 2}
	for i, want := range wantParents {
		if got := topo.Parent(RegionID(i)); got != want {
			t.Fatalf("parent of region %d = %d, want %d", i, got, want)
		}
	}
}

func TestRegionOfOutOfRange(t *testing.T) {
	topo, _ := SingleRegion(3)
	if topo.RegionOf(-1) != NoRegion || topo.RegionOf(99) != NoRegion {
		t.Fatal("out-of-range nodes mapped to a region")
	}
}

func TestMembersReturnsCopy(t *testing.T) {
	topo, _ := SingleRegion(4)
	m := topo.Members(0)
	m[0] = 999
	if topo.MemberAt(0, 0) == 999 {
		t.Fatal("Members exposed internal storage")
	}
	if topo.Members(NoRegion) != nil {
		t.Fatal("Members(NoRegion) != nil")
	}
}

func TestViewOf(t *testing.T) {
	topo, err := Chain(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	v, err := topo.ViewOf(5) // node 5 is in region 1 (nodes 3..6)
	if err != nil {
		t.Fatal(err)
	}
	if v.Region != 1 || v.ParentRegion != 0 {
		t.Fatalf("view region=%d parent=%d", v.Region, v.ParentRegion)
	}
	if len(v.RegionMembers) != 4 || v.NumPeers() != 3 {
		t.Fatalf("region members = %v", v.RegionMembers)
	}
	if v.RegionMembers[v.SelfIdx] != 5 {
		t.Fatalf("SelfIdx %d does not locate self in %v", v.SelfIdx, v.RegionMembers)
	}
	peers := v.Peers()
	if len(peers) != 3 {
		t.Fatalf("region peers = %v", peers)
	}
	for _, p := range peers {
		if p == 5 {
			t.Fatal("view includes self in peers")
		}
	}
	if len(v.ParentMembers) != 3 {
		t.Fatalf("parent members = %v", v.ParentMembers)
	}

	// Root region member has no parent view.
	v0, err := topo.ViewOf(0)
	if err != nil {
		t.Fatal(err)
	}
	if v0.ParentRegion != NoRegion || len(v0.ParentMembers) != 0 {
		t.Fatalf("root view has parent: %+v", v0)
	}

	if _, err := topo.ViewOf(999); err == nil {
		t.Fatal("ViewOf(999) succeeded")
	}
}

func TestHierarchyDistance(t *testing.T) {
	topo, err := BalancedTree(2, 3, 7) // regions: 0; 1,2; 3,4,5,6
	if err != nil {
		t.Fatal(err)
	}
	// With regionSize 1, node i is the only member of region i.
	cases := []struct {
		a, b NodeID
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{1, 3, 1},
		{0, 3, 2},
		{3, 4, 2}, // siblings under region 1
		{3, 5, 4}, // cousins: 3->1->0<-2<-5
	}
	for _, tc := range cases {
		if got := topo.HierarchyDistance(tc.a, tc.b); got != tc.want {
			t.Errorf("distance(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := topo.HierarchyDistance(tc.b, tc.a); got != tc.want {
			t.Errorf("distance(%d,%d) asymmetric", tc.b, tc.a)
		}
	}
}

// Property: every node belongs to exactly one region, and region member
// lists partition the ID space.
func TestPartitionProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		sizes := make([]int, 0, len(raw)%5+1)
		for _, r := range raw {
			sizes = append(sizes, int(r%9)+1)
			if len(sizes) == 6 {
				break
			}
		}
		if len(sizes) == 0 {
			sizes = []int{1}
		}
		topo, err := Chain(sizes...)
		if err != nil {
			return false
		}
		seen := make(map[NodeID]int)
		for r := 0; r < topo.NumRegions(); r++ {
			for _, m := range topo.Members(RegionID(r)) {
				seen[m]++
				if topo.RegionOf(m) != RegionID(r) {
					return false
				}
			}
		}
		if len(seen) != topo.NumNodes() {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRegionsAreContiguous pins the invariant View.RegionMembers states and
// ViewOf and rrmp's region range check rely on: every constructor yields
// regions that are dense ascending ID ranges [first, first+len), and
// ViewOf(n).SelfIdx is n − RegionMembers[0].
func TestRegionsAreContiguous(t *testing.T) {
	build := map[string]func() (*Topology, error){
		"single": func() (*Topology, error) { return SingleRegion(9) },
		"chain":  func() (*Topology, error) { return Chain(3, 1, 5) },
		"star":   func() (*Topology, error) { return Star(4, 2, 6, 1) },
		"tree":   func() (*Topology, error) { return BalancedTree(3, 3, 50) },
	}
	for name, mk := range build {
		topo, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		next := NodeID(0)
		for r := 0; r < topo.NumRegions(); r++ {
			for i, m := range topo.Members(RegionID(r)) {
				if m != next {
					t.Fatalf("%s: region %d member %d is node %d, want %d", name, r, i, m, next)
				}
				next++
			}
		}
		for n := NodeID(0); int(n) < topo.NumNodes(); n++ {
			v, err := topo.ViewOf(n)
			if err != nil {
				t.Fatalf("%s: ViewOf(%d): %v", name, n, err)
			}
			if v.SelfIdx != int(n-v.RegionMembers[0]) || v.RegionMembers[v.SelfIdx] != n {
				t.Fatalf("%s: ViewOf(%d).SelfIdx = %d in %v", name, n, v.SelfIdx, v.RegionMembers)
			}
		}
	}
}
