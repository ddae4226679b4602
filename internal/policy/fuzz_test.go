package policy

import "testing"

// FuzzPolicyParse: Parse never panics, and a spec it accepts canonicalizes
// to a string that parses back to the same Spec (and is its own canonical
// form), so a cell name built from Canonical always names the policy that
// ran. Seeded with the specs README.md documents.
func FuzzPolicyParse(f *testing.F) {
	for _, s := range []string{
		"", "two-phase", "fixed", "fixed:hold=500ms", "fixed-hold:hold=200ms",
		"all", "buffer-all", "hash", "hash-elect", "adaptive",
		"adaptive:tmin=20ms,tmax=200ms,target=2",
		"adaptive:tmin=10ms,tmax=80ms,target=1.5,alpha=0.2",
		" fixed : hold = 1s ", "fixd:hold=1s", "adaptive:tmin=9s,tmax=1s",
		"adaptive:target=NaN", // once accepted, and NaN != NaN

	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := Parse(s)
		if err != nil {
			return
		}
		c := Canonical(s)
		again, err := Parse(c)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, its canonical form %q is rejected: %v", s, c, err)
		}
		if again != sp {
			t.Fatalf("Parse(%q) = %+v, but its canonical form %q parses to %+v", s, sp, c, again)
		}
		if cc := Canonical(c); cc != c {
			t.Fatalf("Canonical(%q) = %q is not a fixed point (%q)", s, c, cc)
		}
	})
}
