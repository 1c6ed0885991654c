//go:build !invariants

package search

import "testing"

// TestInvariantsCompiledOut pins the default-build contract: the
// assertions cost nothing and fire never, even on a corrupt instance.
func TestInvariantsCompiledOut(t *testing.T) {
	if InvariantsEnabled {
		t.Fatal("InvariantsEnabled = true without the invariants tag")
	}
	in := NewHitInstance(1, 2)
	in.Reinit(1, [][]Hit{{{Obj: 0, C: 1}}, {{Obj: 1, C: 1}}}, []int64{1, 1})
	in.loads[0] = 99 // corrupt: Σ C·w is 1
	in.assertInvariants("test") // must be a no-op

	// The gain audits compile out too: a corrupt baseline on a fresh
	// index, and a corrupt ledger at a leaf scan, pass silently.
	in.loads[0] = 1
	in.EnableResidual()
	in.gain0[0] = 99
	in.gain[1] = 99
	in.assertInvariants("test")
	if i, g := bestExtension(in, in.Gains(), nil, 0, in.Len()); i != 1 || g != 99 {
		t.Fatalf("leaf scan read (%d, %d) from the corrupt ledger, want (1, 99)", i, g)
	}
}
