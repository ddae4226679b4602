// Package topology models the multicast group structure RRMP assumes:
// receivers grouped into local regions, with regions arranged into an
// error-recovery hierarchy by distance from the sender (paper §2.1).
//
// Each receiver knows two partial views — the members of its own region and
// the members of its parent region — and nothing else. No node ever holds
// complete group membership, matching the IP-multicast delivery model the
// paper targets.
package topology

import (
	"errors"
	"fmt"
)

// NodeID identifies a group member. IDs are dense, starting at zero, so
// they double as slice indices throughout the simulator.
type NodeID int32

// NoNode is the sentinel for "no such member".
const NoNode NodeID = -1

// RegionID identifies a local region.
type RegionID int32

// NoRegion is the sentinel for "no such region" (the root has no parent).
const NoRegion RegionID = -1

// Region is one local region in the error-recovery hierarchy.
type Region struct {
	ID      RegionID
	Parent  RegionID // NoRegion for the sender's (root) region
	Members []NodeID
}

// Topology is an immutable description of the group: regions, their
// hierarchy, and the designated sender. Build one with the constructors in
// this package and treat it as read-only afterwards.
type Topology struct {
	regions  []Region
	regionOf []RegionID
	// depth[r] is the number of parent hops from region r to its root,
	// precomputed at build time so hierarchy-distance queries on the
	// per-packet latency path never re-derive it.
	depth  []int32
	sender NodeID
}

// errInvalid is wrapped by all validation failures.
var errInvalid = errors.New("invalid topology")

// build assembles a Topology from per-region sizes and a parent function,
// assigning dense node IDs region by region.
func build(sizes []int, parentOf func(i int) RegionID) (*Topology, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("%w: no regions", errInvalid)
	}
	total := 0
	for i, n := range sizes {
		if n < 1 {
			return nil, fmt.Errorf("%w: region %d has size %d", errInvalid, i, n)
		}
		total += n
	}
	t := &Topology{
		regions:  make([]Region, len(sizes)),
		regionOf: make([]RegionID, total),
	}
	next := NodeID(0)
	for i, n := range sizes {
		members := make([]NodeID, n)
		for j := range members {
			members[j] = next
			t.regionOf[next] = RegionID(i)
			next++
		}
		t.regions[i] = Region{ID: RegionID(i), Parent: parentOf(i), Members: members}
	}
	t.sender = t.regions[0].Members[0]
	if err := t.validate(); err != nil {
		return nil, err
	}
	// Depths are safe to derive only after validate has rejected cycles.
	t.depth = make([]int32, len(t.regions))
	for i := range t.regions {
		d := int32(0)
		for r := t.regions[i].Parent; r != NoRegion; r = t.regions[r].Parent {
			d++
		}
		t.depth[i] = d
	}
	return t, nil
}

// SingleRegion returns a topology with one region of n members; the sender
// is member 0. This is the configuration used by every experiment in the
// paper's §4.
func SingleRegion(n int) (*Topology, error) {
	return build([]int{n}, func(int) RegionID { return NoRegion })
}

// Chain returns a linear hierarchy: region 0 (the sender's region) is the
// parent of region 1, which is the parent of region 2, and so on. sizes[i]
// is the member count of region i.
func Chain(sizes ...int) (*Topology, error) {
	return build(sizes, func(i int) RegionID {
		if i == 0 {
			return NoRegion
		}
		return RegionID(i - 1)
	})
}

// Star returns a two-level hierarchy: region 0 is the root and every other
// region has region 0 as its parent. This matches the paper's Figure 1
// when all leaf regions attach directly to the sender's region.
func Star(sizes ...int) (*Topology, error) {
	if len(sizes) < 1 {
		return nil, fmt.Errorf("%w: Star needs at least the root region", errInvalid)
	}
	return build(sizes, func(i int) RegionID {
		if i == 0 {
			return NoRegion
		}
		return 0
	})
}

// BalancedTree returns a balanced hierarchy — levels levels of regions,
// each inner region with branch children, regions numbered breadth-first —
// holding exactly total members, spread as evenly as possible across the
// regions with the remainder assigned to the regions nearest the root. It
// is the layout the scale experiments use to hit exact member counts
// (1000, 5000, ...) on a fixed tree shape; total must be at least the
// region count.
func BalancedTree(branch, levels, total int) (*Topology, error) {
	if branch < 1 || levels < 1 {
		return nil, fmt.Errorf("%w: BalancedTree(branch=%d, levels=%d)", errInvalid, branch, levels)
	}
	count := 0
	width := 1
	for l := 0; l < levels; l++ {
		// Every region needs >= 1 member, so the running region count may
		// never exceed total. Checking before each addition also keeps the
		// geometric width accumulation from overflowing int on absurd
		// (branch, levels) inputs: width stays <= total at all times.
		if width > total-count {
			return nil, fmt.Errorf("%w: BalancedTree total %d < %d-level branch-%d region count", errInvalid, total, levels, branch)
		}
		count += width
		if l+1 < levels {
			if width > total/branch {
				return nil, fmt.Errorf("%w: BalancedTree total %d < %d-level branch-%d region count", errInvalid, total, levels, branch)
			}
			width *= branch
		}
	}
	sizes := make([]int, count)
	base, rem := total/count, total%count
	for i := range sizes {
		sizes[i] = base
		if i < rem {
			sizes[i]++
		}
	}
	return build(sizes, func(i int) RegionID {
		if i == 0 {
			return NoRegion
		}
		return RegionID((i - 1) / branch)
	})
}

// validate checks the hierarchy for cycles, bad parents, and an in-region
// sender.
func (t *Topology) validate() error {
	for _, r := range t.regions {
		if r.Parent == r.ID {
			return fmt.Errorf("%w: region %d is its own parent", errInvalid, r.ID)
		}
		if r.Parent != NoRegion && (r.Parent < 0 || int(r.Parent) >= len(t.regions)) {
			return fmt.Errorf("%w: region %d has unknown parent %d", errInvalid, r.ID, r.Parent)
		}
	}
	// Walk each region to a root; fail on cycles or walks longer than the
	// region count.
	for _, r := range t.regions {
		steps := 0
		for cur := r.ID; cur != NoRegion; cur = t.regions[cur].Parent {
			steps++
			if steps > len(t.regions) {
				return fmt.Errorf("%w: cycle involving region %d", errInvalid, r.ID)
			}
		}
	}
	if t.RegionOf(t.sender) == NoRegion {
		return fmt.Errorf("%w: sender %d not in any region", errInvalid, t.sender)
	}
	return nil
}

// NumNodes returns the total number of members in the group.
func (t *Topology) NumNodes() int { return len(t.regionOf) }

// NumRegions returns the number of regions.
func (t *Topology) NumRegions() int { return len(t.regions) }

// Sender returns the designated sender (a member of the root region).
func (t *Topology) Sender() NodeID { return t.sender }

// RegionOf returns the region containing node, or NoRegion for an unknown
// node.
func (t *Topology) RegionOf(node NodeID) RegionID {
	if node < 0 || int(node) >= len(t.regionOf) {
		return NoRegion
	}
	return t.regionOf[node]
}

// Parent returns the parent region of r, or NoRegion at the root or for an
// unknown region.
func (t *Topology) Parent(r RegionID) RegionID {
	if r < 0 || int(r) >= len(t.regions) {
		return NoRegion
	}
	return t.regions[r].Parent
}

// RegionSize returns the number of members in region r (0 if unknown).
func (t *Topology) RegionSize(r RegionID) int {
	if r < 0 || int(r) >= len(t.regions) {
		return 0
	}
	return len(t.regions[r].Members)
}

// MemberAt returns the i-th member of region r. It panics on out-of-range
// arguments; use RegionSize to bound i. This accessor exists so hot protocol
// paths can pick random members without allocating.
func (t *Topology) MemberAt(r RegionID, i int) NodeID {
	return t.regions[r].Members[i]
}

// Members returns a copy of region r's member list (nil for an unknown
// region).
func (t *Topology) Members(r RegionID) []NodeID {
	if r < 0 || int(r) >= len(t.regions) {
		return nil
	}
	out := make([]NodeID, len(t.regions[r].Members))
	copy(out, t.regions[r].Members)
	return out
}

// HierarchyDistance returns the number of parent hops separating the regions
// of a and b along the hierarchy (0 if the same region). If neither region
// is an ancestor of the other, it returns the sum of both distances to the
// deepest common ancestor; with disjoint roots it returns the sum of both
// depths plus one. Latency models use this to scale inter-region delay.
func (t *Topology) HierarchyDistance(a, b NodeID) int {
	ra, rb := t.RegionOf(a), t.RegionOf(b)
	return t.RegionDistance(ra, rb)
}

// RegionDistance returns the hierarchy distance between two regions (the
// node-level HierarchyDistance of their members). Depths are precomputed,
// so one call costs only the walk to the common ancestor — the per-packet
// budget the latency models pay at 1000+-member scale.
func (t *Topology) RegionDistance(ra, rb RegionID) int {
	if ra == rb {
		return 0
	}
	da, db := 0, 0
	if ra >= 0 && int(ra) < len(t.depth) {
		da = int(t.depth[ra])
	}
	if rb >= 0 && int(rb) < len(t.depth) {
		db = int(t.depth[rb])
	}
	x, y := ra, rb
	dist := 0
	for da > db {
		x = t.regions[x].Parent
		da--
		dist++
	}
	for db > da {
		y = t.regions[y].Parent
		db--
		dist++
	}
	for x != y {
		if x == NoRegion || y == NoRegion {
			return dist + 1 // disjoint roots
		}
		x = t.regions[x].Parent
		y = t.regions[y].Parent
		dist += 2
	}
	return dist
}

// ShardMap partitions the regions into at most shards contiguous blocks of
// region ids, balanced by member count, and returns the region -> shard
// assignment. Contiguity matters twice over: regions are the protocol's
// locality unit (a region's members only ever appear together in views), and
// node ids are assigned region by region, so each shard also owns one dense
// node-id range. The greedy proportional cut assigns region i to the current
// shard until that shard's cumulative member count reaches its proportional
// quota, advancing early when exactly enough regions remain to give every
// later shard at least one.
func (t *Topology) ShardMap(shards int) []int32 {
	if shards > len(t.regions) {
		shards = len(t.regions)
	}
	if shards < 1 {
		shards = 1
	}
	out := make([]int32, len(t.regions))
	total := len(t.regionOf)
	s, cum := 0, 0
	for i := range t.regions {
		out[i] = int32(s)
		cum += len(t.regions[i].Members)
		if s < shards-1 {
			remaining := len(t.regions) - i - 1
			needed := shards - s - 1
			if cum*shards >= (s+1)*total || remaining == needed {
				s++
			}
		}
	}
	return out
}

// NodeShards maps every node to its shard under ShardMap(shards) and
// returns the effective shard count (which may be lower than requested when
// there are fewer regions than shards).
func (t *Topology) NodeShards(shards int) ([]int32, int) {
	rm := t.ShardMap(shards)
	eff := int(rm[len(rm)-1]) + 1
	out := make([]int32, len(t.regionOf))
	for n, r := range t.regionOf {
		out[n] = rm[r]
	}
	return out, eff
}

// View is the partial membership knowledge one member has (paper §2.1):
// all members of its own region plus all members of its parent region.
//
// Both member slices are shared — every view of a region aliases the
// topology's single region slice instead of carrying a private copy, so
// building all views of an n-member group costs O(n), not O(n × region
// size). Treat them as read-only; a consumer that needs a private or
// self-excluding list takes Peers().
type View struct {
	Self         NodeID
	Region       RegionID
	ParentRegion RegionID // NoRegion if the member is in the root region
	// RegionMembers is the member's own region, Self included. Regions are
	// contiguous by construction: build, the only place members get IDs,
	// gives each region the dense ascending range [first, first+len), so
	// RegionMembers[i] == RegionMembers[0]+i and Self sits at index
	// Self−RegionMembers[0]. Shared across views — read-only.
	RegionMembers []NodeID
	// SelfIdx is Self's position in RegionMembers, so self-excluding
	// iteration and random peer picks need no separate peers slice.
	SelfIdx int
	// ParentMembers is the parent region's member list (empty at the
	// root). Shared across views — read-only.
	ParentMembers []NodeID
}

// Peers returns a fresh copy of the region members excluding Self, in
// region order. Cold paths that mutate or retain a private peer list use
// this; hot paths index RegionMembers/SelfIdx directly.
func (v View) Peers() []NodeID {
	if len(v.RegionMembers) <= 1 {
		return nil
	}
	out := make([]NodeID, 0, len(v.RegionMembers)-1)
	for i, m := range v.RegionMembers {
		if i != v.SelfIdx {
			out = append(out, m)
		}
	}
	return out
}

// NumPeers returns the number of region peers (region size minus Self).
func (v View) NumPeers() int {
	if len(v.RegionMembers) == 0 {
		return 0
	}
	return len(v.RegionMembers) - 1
}

// ViewOf computes the membership view of node. The returned slices alias
// the topology's own region storage (see View) — callers must not mutate
// them.
func (t *Topology) ViewOf(node NodeID) (View, error) {
	r := t.RegionOf(node)
	if r == NoRegion {
		return View{}, fmt.Errorf("%w: node %d not in topology", errInvalid, node)
	}
	v := View{Self: node, Region: r, ParentRegion: t.Parent(r), RegionMembers: t.regions[r].Members}
	// Regions are contiguous by construction (see View.RegionMembers), so
	// Self's index is a subtraction.
	v.SelfIdx = int(node - v.RegionMembers[0])
	if v.ParentRegion != NoRegion {
		v.ParentMembers = t.regions[v.ParentRegion].Members
	}
	return v, nil
}
