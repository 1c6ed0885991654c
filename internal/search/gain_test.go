package search

import (
	"fmt"
	"math/rand"
	"testing"
)

// marginalScan hides the gain ledger of the wrapped instance: Gains
// reports nil, so every driver falls back to the Marginal scan — the
// pre-ledger reference the ledger scan must reproduce exactly.
type marginalScan struct{ *HitInstance }

func (marginalScan) Gains() []int { return nil }

// checkLedger asserts the ledger contract: the upkeep is live and
// Gains()[i] == Marginal(i) for every candidate.
func checkLedger(t *testing.T, tag string, in *HitInstance) {
	t.Helper()
	g := in.Gains()
	if g == nil {
		t.Fatalf("%s: Gains() = nil while the residual upkeep runs", tag)
	}
	for i := 0; i < in.Len(); i++ {
		if want := in.Marginal(i); g[i] != want {
			t.Fatalf("%s: Gains()[%d] = %d, Marginal = %d", tag, i, g[i], want)
		}
	}
}

// ledgerModel derives a random instance shape from the bits of one
// byte: s in 1..3 (bits 0-1), r in 1..3 replicas per object (bits 2-3),
// aggregated hits with C up to r, the whole-domain case, or all C = 1,
// the fast strip (bit 4), optional object weights (bit 5), and 0..3
// zero-load padding candidates (bits 6-7).
func ledgerModel(rng *rand.Rand, shape uint8, m, objects, k int) (mm *moveModel, aggregate bool) {
	s := 1 + int(shape&3)%3
	r := 1 + int(shape>>2&3)%3
	aggregate = shape&0x10 != 0
	weighted := shape&0x20 != 0
	mm = randomModel(rng, m, objects, r, s, k, aggregate, weighted)
	for p := 0; p < int(shape>>6); p++ {
		mm.counts = append(mm.counts, make([]int32, objects))
	}
	return mm, aggregate
}

// FuzzGainLedger drives random Add/Remove sequences, with searches,
// ApplyMove and EnableResidual between them, and checks after every
// operation that the ledger equals Marginal for every candidate.
func FuzzGainLedger(f *testing.F) {
	ops := []byte{0x00, 0x04, 0x08, 0x0c, 0x02, 0x06, 0x01, 0x0d, 0x13, 0x05, 0x09, 0x0a, 0x03, 0x11, 0x15, 0x1d, 0x0e, 0x17, 0x02, 0x06}
	for i, shape := range []uint8{
		0x05, // s = 2, r = 2, C = 1 strip
		0x19, // s = 2, r = 3, aggregated
		0x1e, // s = 3, r = 1, aggregated (every C = 1, no strip needed)
		0x3a, // s = 3, r = 3, aggregated, weighted
		0x4a, // s = 3, r = 3, strip, one padding candidate
		0xb4, // s = 1, r = 2, aggregated, weighted, two padding candidates
		0xe9, // s = 2, r = 3, strip, weighted, three padding candidates
		0x18, // s = 1, r = 3, aggregated
	} {
		f.Add(int64(i+1), shape, ops)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		mm, aggregate := ledgerModel(rng, shape, 6, 16, 3)
		in, _, pos := mm.build(true)
		in.EnableResidual()
		checkLedger(t, "clean", in)
		var chosen []int
		unwind := func() {
			for len(chosen) > 0 {
				in.Remove(chosen[len(chosen)-1])
				chosen = chosen[:len(chosen)-1]
			}
		}
		if len(ops) > 96 {
			ops = ops[:96]
		}
		for step, op := range ops {
			tag := fmt.Sprintf("step %d op %#x", step, op)
			m := in.Len()
			switch op % 4 {
			case 0, 1: // fail one more candidate
				if len(chosen) == m {
					continue
				}
				i := int(op>>2) % m
				for contains(chosen, i) {
					i = (i + 1) % m
				}
				in.Add(i)
				chosen = append(chosen, i)
			case 2: // revive any chosen candidate, not only the last
				if len(chosen) == 0 {
					continue
				}
				j := int(op>>2) % len(chosen)
				in.Remove(chosen[j])
				chosen = append(chosen[:j], chosen[j+1:]...)
			case 3: // between searches: a move or a full search
				unwind()
				if op&0x10 != 0 {
					obj, fromID, toID := mm.randomMove(rng, aggregate)
					in.ApplyMove(obj, pos[fromID], pos[toID])
					if in.Gains() != nil {
						t.Fatalf("%s: Gains() live after ApplyMove suspended the upkeep", tag)
					}
					in.EnableResidual()
				} else {
					seed := Greedy(in)
					in.Reset()
					BranchAndBoundWith(in, seed, NewBudget(0), BoundResidual)
				}
			}
			checkLedger(t, tag, in)
		}
	})
}

// sameResult requires byte-identical search outcomes.
func sameResult(t *testing.T, tag string, got, want Result) {
	t.Helper()
	if got.Failed != want.Failed || got.Exact != want.Exact || got.Visited != want.Visited ||
		fmt.Sprint(got.Sel) != fmt.Sprint(want.Sel) {
		t.Fatalf("%s: ledger scan {failed %d sel %v exact %v visited %d}, Marginal scan {failed %d sel %v exact %v visited %d}",
			tag, got.Failed, got.Sel, got.Exact, got.Visited, want.Failed, want.Sel, want.Exact, want.Visited)
	}
}

// TestGainLedgerDrivers runs every driver's final-level scan on the
// ledger and on the Marginal-scan reference: the serial driver from a
// greedy seed, and the work-stealing driver at 1, 2 and 8 workers
// seeded with the optimum (so the visited count is
// schedule-independent). Damage, witness and visited states must match
// exactly.
func TestGainLedgerDrivers(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for trial := 0; trial < 24; trial++ {
		// Cycle s, r, aggregation, weights and 0-3 padding candidates.
		shape := uint8(trial%3) | uint8(trial/3%3)<<2 | uint8(trial%2)<<4 | uint8(trial/2%2)<<5 | uint8(trial%4)<<6
		mm, _ := ledgerModel(rng, shape, 9, 30, 3)
		in, _, _ := mm.build(false)
		ref, _, _ := mm.build(false)
		tag := fmt.Sprintf("trial %d shape %#x", trial, shape)

		seed := Greedy(in)
		in.Reset()
		Greedy(ref)
		ref.Reset()
		want := BranchAndBoundWith(marginalScan{ref}, seed, NewBudget(0), BoundResidual)
		got := BranchAndBoundWith(in, seed, NewBudget(0), BoundResidual)
		sameResult(t, tag+"/serial", got, want)
		if in.Gains() == nil {
			t.Fatalf("%s: the residual search left no live ledger", tag)
		}

		opt := want
		for _, workers := range []int{1, 2, 8} {
			wtag := fmt.Sprintf("%s/workers=%d", tag, workers)
			wantP, err := BranchAndBoundParallelWith(marginalScan{ref},
				func() (Instance, error) { return marginalScan{ref.Clone()}, nil }, opt, NewBudget(0), workers, BoundResidual)
			if err != nil {
				t.Fatal(err)
			}
			gotP, err := BranchAndBoundParallelWith(in,
				func() (Instance, error) { return in.Clone(), nil }, opt, NewBudget(0), workers, BoundResidual)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, wtag+"/steal", gotP, wantP)
		}
	}
}
