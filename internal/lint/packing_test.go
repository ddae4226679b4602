package lint_test

import (
	"cmp"
	"go/types"
	"slices"
	"testing"

	"repro/internal/lint"
)

// wordSizes are the sizes the packing rule computes with: 64-bit words,
// as on every host the benchmarks run on. StdSizes leaves a struct's end
// unpadded; gc rounds a struct's size up to its alignment, and so does
// packing.
var wordSizes = &types.StdSizes{WordSize: 8, MaxAlign: 8}

// TestHotStructsArePacked keeps the structs a large trial holds by the
// hundred thousand free of padding a field order could remove: rrmp.Member
// and the core.Buffer and rrmp.sourceState it holds (one each per member),
// wire's per-source window and source table, which both of those are built
// of, core.Entry (one per buffered copy) and eventq.Event (one per pending
// event). Each byte of a member is about 0.1 MB of scale100k's peak RSS.
// A struct fails when ordering its fields by alignment would make it
// smaller. TestHotStructsArePackedFixture pins the rule.
func TestHotStructsArePacked(t *testing.T) {
	hot := map[string][]string{
		"repro/internal/rrmp":   {"Member", "sourceState"},
		"repro/internal/core":   {"Buffer", "Entry"},
		"repro/internal/eventq": {"Event"},
		"repro/internal/wire":   {"SeqWindow", "SourceTable", "SourceSlot"},
	}
	pkgs, err := lint.Load("../..", "./internal/rrmp", "./internal/core", "./internal/eventq", "./internal/wire")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, name := range hot[p.ImportPath] {
			if size, packed := packing(t, p, name); packed < size {
				t.Errorf("%s.%s is %d bytes; ordered by alignment its fields would take %d", p.Types.Name(), name, size, packed)
			}
		}
		delete(hot, p.ImportPath)
	}
	if len(hot) > 0 {
		t.Fatalf("packages not loaded: %v", hot)
	}
}

// TestHotStructsArePackedFixture pins the rule on a struct that pads and
// on the same fields ordered by alignment.
func TestHotStructsArePackedFixture(t *testing.T) {
	pkgs, err := lint.Load("testdata/packing", "./internal/node")
	if err != nil {
		t.Fatal(err)
	}
	if size, packed := packing(t, pkgs[0], "Padded"); size != 40 || packed != 24 {
		t.Errorf("Padded: %d bytes, %d packed; want 40 and 24", size, packed)
	}
	if size, packed := packing(t, pkgs[0], "Packed"); size != 24 || packed != 24 {
		t.Errorf("Packed: %d bytes, %d packed; want 24 and 24", size, packed)
	}
}

// packing returns the size of struct type name in p and the size of the
// same fields ordered by alignment, largest first, with zero-size fields
// leading (gc pads a struct that ends in one), each rounded up to the
// struct's alignment. A generic type is measured with every type argument
// a byte, the argument that pads most when it sits before a word.
func packing(t *testing.T, p *lint.Package, name string) (size, packed int64) {
	t.Helper()
	obj := p.Types.Scope().Lookup(name)
	if obj == nil {
		t.Fatalf("package %s declares no %s", p.Types.Name(), name)
	}
	typ := obj.Type()
	if params := typ.(*types.Named).TypeParams(); params.Len() > 0 {
		args := make([]types.Type, params.Len())
		for i := range args {
			args[i] = types.Typ[types.Byte]
		}
		var err error
		if typ, err = types.Instantiate(nil, typ, args, true); err != nil {
			t.Fatal(err)
		}
	}
	st := typ.Underlying().(*types.Struct)
	fields := make([]types.Type, st.NumFields())
	for i := range fields {
		fields[i] = st.Field(i).Type()
	}
	slices.SortStableFunc(fields, func(a, b types.Type) int {
		if za, zb := wordSizes.Sizeof(a) == 0, wordSizes.Sizeof(b) == 0; za != zb {
			if za {
				return -1
			}
			return 1
		}
		return cmp.Compare(wordSizes.Alignof(b), wordSizes.Alignof(a))
	})
	roundUp := func(n, a int64) int64 { return (n + a - 1) / a * a }
	for _, f := range fields {
		packed = roundUp(packed, wordSizes.Alignof(f)) + wordSizes.Sizeof(f)
	}
	align := wordSizes.Alignof(st)
	return roundUp(wordSizes.Sizeof(st), align), roundUp(packed, align)
}
