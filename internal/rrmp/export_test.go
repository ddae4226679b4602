package rrmp

// NewMember constructs a member outside a slab: new(Member) made ready by
// Init. runner.NewCluster makes its members in one slice with Init, and
// TestSlabMembersMatchNewMember holds the two to one behaviour.
func NewMember(cfg Config) *Member {
	m := new(Member)
	m.Init(cfg)
	return m
}
