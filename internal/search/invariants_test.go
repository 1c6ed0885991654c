//go:build invariants

package search

import (
	"strings"
	"testing"
)

// moveReady builds a small move-enabled instance in canonical order:
// three candidates with loads 2, 2, 1.
func moveReady(t *testing.T) *HitInstance {
	t.Helper()
	in := NewHitInstance(1, 3)
	in.Reinit(2, [][]Hit{
		{{Obj: 0, C: 1}, {Obj: 1, C: 1}},
		{{Obj: 0, C: 1}, {Obj: 2, C: 1}},
		{{Obj: 2, C: 1}},
	}, []int64{2, 2, 1})
	in.EnableMoves([]int32{0, 1, 2}, nil)
	return in
}

func TestInvariantsEnabled(t *testing.T) {
	if !InvariantsEnabled {
		t.Fatal("InvariantsEnabled = false under the invariants tag")
	}
}

// TestAssertInvariantsPassesOnValidMoves exercises the checked paths on
// a healthy instance: every ApplyMove, RevertMove and CloneForMoves
// runs the full CSR audit and must stay silent.
func TestAssertInvariantsPassesOnValidMoves(t *testing.T) {
	in := moveReady(t)
	from, to := in.ApplyMove(0, 0, 2)
	cp := in.CloneForMoves()
	if cp.Len() != in.Len() {
		t.Fatalf("clone Len %d != %d", cp.Len(), in.Len())
	}
	in.RevertMove(0, from, to)
}

// TestAssertInvariantsCatchesCorruption corrupts one derived quantity
// and expects the audit to panic: this is the fixture proving the
// assertions are live, not compiled out.
func TestAssertInvariantsCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(in *HitInstance)
		wantMsg string
	}{
		{"load drift", func(in *HitInstance) { in.loads[2]++ }, "load"},
		{"zero count", func(in *HitInstance) { in.hits[0].C = 0 }, "count"},
		{"unsorted run", func(in *HitInstance) {
			in.hits[0], in.hits[1] = in.hits[1], in.hits[0]
		}, "ascending"},
		{"dirty counter", func(in *HitInstance) { in.cnt[1] = 1 }, "counter"},
		{"gain baseline drift", func(in *HitInstance) {
			in.EnableResidual()
			in.gain0[1]++
		}, "gain0"},
		{"band floor drift", func(in *HitInstance) {
			in.EnableResidual()
			in.bandLo--
		}, "band floor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := moveReady(t)
			tc.corrupt(in)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("corruption not caught")
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, tc.wantMsg) {
					t.Fatalf("panic %v does not mention %q", r, tc.wantMsg)
				}
			}()
			if tc.name == "unsorted run" || tc.name == "zero count" {
				// The objs strip would mask run corruption: drop it so
				// the run checks themselves fire.
				in.objs = nil
			}
			in.assertInvariants("test")
		})
	}
}

// TestAuditGainsCatchesDrift proves the leaf-scan audit is live: a
// ledger entry that disagrees with the recount from cnt and the runs
// panics at the next final-level scan, while a healthy ledger passes.
func TestAuditGainsCatchesDrift(t *testing.T) {
	in := moveReady(t)
	in.EnableResidual()
	in.Add(0)
	bestExtension(in, in.Gains(), nil, 1, in.Len()) // healthy: silent
	in.gain[2]++
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "candidate 2 gain") {
			t.Fatalf("panic %v, want a candidate 2 gain mismatch", r)
		}
	}()
	bestExtension(in, in.Gains(), nil, 1, in.Len())
}
