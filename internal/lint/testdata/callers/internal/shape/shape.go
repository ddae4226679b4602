// Package shape declares two module interfaces: Namer, which Describe
// calls through, and Sizer, which nothing calls through.
package shape

type Namer interface{ Name() string }

type Sizer interface{ Size() int }

type Box struct{}

// Name is reached through Namer: clean.
func (Box) Name() string { return "box" }

// Size implements Sizer alone, and nothing calls Sizer.Size: a finding.
func (Box) Size() int { return 1 }

// String implements fmt.Stringer, an interface from outside the module:
// clean.
func (Box) String() string { return "box" }

func Describe(n Namer) string { return n.Name() }

// Unused has no caller at all: a finding.
func Unused() {}
