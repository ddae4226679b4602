package policy

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

func testEnv() Env {
	return Env{
		Self:          3,
		Region:        []topology.NodeID{0, 1, 2, 3},
		RegionSize:    4,
		IdleThreshold: 40 * time.Millisecond,
		C:             2,
		LongTermTTL:   time.Minute,
	}
}

// TestParseAliases pins the alias table: every historic token and the
// empty default resolve to their canonical kind.
func TestParseAliases(t *testing.T) {
	for token, kind := range map[string]string{
		"":           KindTwoPhase,
		"two-phase":  KindTwoPhase,
		"fixed":      KindFixed,
		"fixed-hold": KindFixed,
		"all":        KindAll,
		"buffer-all": KindAll,
		"hash":       KindHash,
		"hash-elect": KindHash,
		"adaptive":   KindAdaptive,
	} {
		sp, err := Parse(token)
		if err != nil {
			t.Fatalf("Parse(%q): %v", token, err)
		}
		if sp.Kind != kind {
			t.Fatalf("Parse(%q).Kind = %q, want %q", token, sp.Kind, kind)
		}
	}
}

// TestParseParameters pins the spec grammar: per-kind parameter menus,
// value validation and the tmin<=tmax cross-check.
func TestParseParameters(t *testing.T) {
	sp, err := Parse("adaptive:tmin=10ms,tmax=80ms,target=1.5,alpha=0.2")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Kind: KindAdaptive, TMin: 10 * time.Millisecond, TMax: 80 * time.Millisecond, Target: 1.5, Alpha: 0.2}
	if sp != want {
		t.Fatalf("parsed %+v, want %+v", sp, want)
	}
	sp, err = Parse("fixed-hold:hold=250ms")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != KindFixed || sp.Hold != 250*time.Millisecond {
		t.Fatalf("parsed %+v, want fixed hold=250ms", sp)
	}
	for _, bad := range []string{
		"fixed:hold=-1s",           // negative duration
		"fixed:hold",               // missing =val
		"fixed:tmin=10ms",          // adaptive-only parameter
		"two-phase:hold=1s",        // parameterless kind
		"adaptive:alpha=1.5",       // alpha outside (0, 1]
		"adaptive:target=0",        // target must be positive
		"adaptive:target=NaN",      // ... and a number
		"adaptive:target=+Inf",     // ... and finite
		"adaptive:tmin=9s,tmax=1s", // tmax below tmin
		"adaptive:frobnicate=1",    // unknown key
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted a malformed spec", bad)
		}
	}
}

// TestParseUnknownKind pins the typed error: unknown kinds return
// *UnknownKindError carrying the offending token and the full menu.
func TestParseUnknownKind(t *testing.T) {
	_, err := Parse("fixd:hold=1s")
	var uk *UnknownKindError
	if !errors.As(err, &uk) {
		t.Fatalf("Parse error %T, want *UnknownKindError", err)
	}
	if uk.Kind != "fixd" {
		t.Fatalf("UnknownKindError.Kind = %q, want fixd", uk.Kind)
	}
	msg := err.Error()
	for _, kind := range KnownKinds() {
		if !strings.Contains(msg, kind) {
			t.Fatalf("error %q does not list known kind %q", msg, kind)
		}
	}
}

// TestCanonical pins token canonicalization: kinds rewrite, parameters
// survive verbatim, and non-policy tokens pass through untouched.
func TestCanonical(t *testing.T) {
	for in, want := range map[string]string{
		"fixed-hold":            "fixed",
		"fixed-hold:hold=200ms": "fixed:hold=200ms",
		"buffer-all":            "all",
		"hash-elect":            "hash",
		"two-phase":             "two-phase",
		"":                      "two-phase",
		"adaptive:tmin=5ms":     "adaptive:tmin=5ms",
		"server":                "server", // the rmtp axis placeholder
	} {
		if got := Canonical(in); got != want {
			t.Fatalf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestBuildKinds pins what each spec constructs and the default fallbacks.
func TestBuildKinds(t *testing.T) {
	env := testEnv()
	for spec, wantName := range map[string]string{
		"two-phase": "two-phase",
		"fixed":     "fixed-hold",
		"all":       "buffer-all",
		"hash":      "hash-elect",
		"adaptive":  "adaptive",
	} {
		sp, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := sp.Build(env).Name(); got != wantName {
			t.Fatalf("Build(%q).Name() = %q, want %q", spec, got, wantName)
		}
	}
	// Fixed hold resolution order: spec > env > package default.
	if p := (Spec{Kind: KindFixed, Hold: time.Second}).Build(env).(*core.FixedHold); p.D != time.Second {
		t.Fatalf("spec hold ignored: %v", p.D)
	}
	env2 := env
	env2.FixedHold = 2 * time.Second
	if p := (Spec{Kind: KindFixed}).Build(env2).(*core.FixedHold); p.D != 2*time.Second {
		t.Fatalf("env hold ignored: %v", p.D)
	}
	if p := (Spec{Kind: KindFixed}).Build(env).(*core.FixedHold); p.D != DefaultFixedHold {
		t.Fatalf("default hold = %v, want %v", p.D, DefaultFixedHold)
	}
	// Adaptive defaults land when the spec leaves parameters zero.
	if _, ok := (Spec{Kind: KindAdaptive}).Build(env).(*core.AdaptiveHold); !ok {
		t.Fatal("adaptive spec did not build a core.AdaptiveHold")
	}
}

// TestKnownRoster pins the listing: every canonical kind appears once, in
// order, with its aliases accepted by Parse and its parameter docs intact.
func TestKnownRoster(t *testing.T) {
	infos := Known()
	if len(infos) != len(KnownKinds()) {
		t.Fatalf("roster has %d entries, KnownKinds %d", len(infos), len(KnownKinds()))
	}
	for i, info := range infos {
		if info.Kind != KnownKinds()[i] {
			t.Fatalf("roster[%d] = %q, want %q", i, info.Kind, KnownKinds()[i])
		}
		if info.Summary == "" {
			t.Fatalf("roster[%d] %q has no summary", i, info.Kind)
		}
		for _, alias := range info.Aliases {
			sp, err := Parse(alias)
			if err != nil || sp.Kind != info.Kind {
				t.Fatalf("alias %q of %q does not parse back: %v", alias, info.Kind, err)
			}
		}
		for _, param := range info.Params {
			if param.Default == "" || param.Doc == "" {
				t.Fatalf("%s parameter %q lacks default or doc", info.Kind, param.Name)
			}
		}
	}
}
