package explore

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"rollrec/internal/failure"
	"rollrec/internal/recovery"
)

// testSpec returns a spec sized for CI: fewer decision points than the
// defaults, same invariant catalog.
func testSpec(fam Family, style recovery.Style) Spec {
	return Spec{Family: fam, Style: style, MaxPoints: 12}
}

// TestExploreCleanAllFamilies is the n=3 bounded-exhaustive gate: every
// single-crash schedule over the sampled decision points must satisfy the
// full invariant catalog, for all three protocol families (and all three
// FBL recovery styles).
func TestExploreCleanAllFamilies(t *testing.T) {
	// fingerprint pins each exploration's fold over every branch: the
	// report is a pure function of the spec, so a consistent behaviour
	// change would pass the double-run gate but not these.
	cases := []struct {
		name        string
		spec        Spec
		fingerprint uint64
	}{
		{"fbl-nonblocking", testSpec(FamilyFBL, recovery.NonBlocking), 0x0b90f841f9b88d5b},
		{"fbl-blocking", testSpec(FamilyFBL, recovery.Blocking), 0x0b90f841f9b88d5b},
		{"fbl-manetho", testSpec(FamilyFBL, recovery.Manetho), 0x887b2b8bf0a25265},
		{"coordinated", testSpec(FamilyCoordinated, 0), 0x928c53813331122e},
		{"optimistic", testSpec(FamilyOptimistic, 0), 0xf6a789b828866f31},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(context.Background(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Points == 0 {
				t.Fatalf("no decision points derived (baseline events %d)", rep.BaselineEvents)
			}
			if rep.Branches == 0 {
				t.Fatal("no branches explored")
			}
			for _, cx := range rep.Counterexamples {
				t.Errorf("counterexample:\n%s", cx)
			}
			if rep.Violations != 0 {
				t.Fatalf("%d violations across %d branches", rep.Violations, rep.Branches)
			}
			t.Logf("%s: %d points, %d branches, baseline %d events, fingerprint %#x",
				tc.name, rep.Points, rep.Branches, rep.BaselineEvents, rep.Fingerprint)
			if rep.Fingerprint != tc.fingerprint {
				t.Errorf("fingerprint %#x, pinned %#x", rep.Fingerprint, tc.fingerprint)
			}
		})
	}
}

// TestExploreDeterministicReport pins the CI double-run gate: two
// explorations of the same spec must produce byte-identical reports,
// including the fold over every branch fingerprint.
func TestExploreDeterministicReport(t *testing.T) {
	spec := testSpec(FamilyFBL, recovery.NonBlocking)
	spec.MaxPoints = 8
	spec.Random = 4
	spec.MaxCrashes = 2
	spec.DeepBranches = 6
	a, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("reports diverged:\n%s\n%s", ja, jb)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints diverged: %#x vs %#x", a.Fingerprint, b.Fingerprint)
	}
}

// TestExploreMultiCrash drives the depth-2 pass (second crash aimed inside
// observed recoveries) plus the random frontier on the coordinated family.
func TestExploreMultiCrash(t *testing.T) {
	spec := testSpec(FamilyCoordinated, 0)
	spec.MaxPoints = 6
	spec.MaxCrashes = 2
	spec.DeepBranches = 9
	spec.Random = 3
	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, cx := range rep.Counterexamples {
		t.Errorf("counterexample:\n%s", cx)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d violations across %d branches", rep.Violations, rep.Branches)
	}
	if rep.Branches <= rep.Points*spec.N {
		t.Fatalf("expected deep/random branches beyond the %d singles, got %d total",
			rep.Points*spec.N, rep.Branches)
	}
}

// TestCounterexampleRoundTrip checks save/load JSON fidelity.
func TestCounterexampleRoundTrip(t *testing.T) {
	cx := Counterexample{
		Spec:        testSpec(FamilyFBL, recovery.Blocking).withDefaults(),
		Violations:  []string{"orphan: proc 2 delivered beyond stable frontier"},
		Fingerprint: 0xdeadbeef,
		Events:      1234,
	}
	cx.Plan = append(cx.Plan, failure.Crash{Step: 17, Proc: 1})
	path := filepath.Join(t.TempDir(), "cx", "case-0.json")
	if err := SaveCounterexample(path, cx); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCounterexample(path)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(cx)
	jb, _ := json.Marshal(got)
	if string(ja) != string(jb) {
		t.Fatalf("round trip diverged:\n%s\n%s", ja, jb)
	}
}
