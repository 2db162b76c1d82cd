package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// requireAttrTermsMatchDense checks the AttrTerms contract of m against its
// dense coefficients: strictly ascending transactions, exactly the (a,t)
// pairs with a non-zero C3 or TransferOwn, each carrying those two values.
func requireAttrTermsMatchDense(t *testing.T, m *Model) {
	t.Helper()
	for a := 0; a < m.NumAttrs(); a++ {
		terms := m.AttrTerms(a)
		i := 0
		for x := 0; x < m.NumTxns(); x++ {
			c3, xfer := m.C3(a, x), m.TransferOwn(a, x)
			if c3 == 0 && xfer == 0 {
				if i < len(terms) && terms[i].Txn == x {
					t.Fatalf("attr %d: term for txn %d with zero C3 and TransferOwn", a, x)
				}
				continue
			}
			if i >= len(terms) || terms[i].Txn != x {
				t.Fatalf("attr %d: terms %+v miss txn %d (C3 %g, TransferOwn %g) at position %d",
					a, terms, x, c3, xfer, i)
			}
			if terms[i].C3 != c3 || terms[i].Xfer != xfer {
				t.Fatalf("attr %d txn %d: term %+v, dense C3 %g TransferOwn %g", a, x, terms[i], c3, xfer)
			}
			i++
		}
		if i != len(terms) {
			t.Fatalf("attr %d: %d terms beyond the dense non-zeros: %+v", a, len(terms)-i, terms[i:])
		}
	}
}

// TestAttrTermsMatchDenseCoefficients pins the AttrTerms ordering and
// coverage contract the SA y-pass pricing relies on, on fresh compiles of
// every write-accounting mode and after random Patch sequences.
func TestAttrTermsMatchDenseCoefficients(t *testing.T) {
	for _, wa := range []WriteAccounting{WriteAll, WriteRelevant, WriteNone} {
		mo := DefaultModelOptions()
		mo.WriteAccounting = wa
		t.Run(wa.String(), func(t *testing.T) {
			fixture, err := NewModel(testInstance(), mo)
			if err != nil {
				t.Fatal(err)
			}
			requireAttrTermsMatchDense(t, fixture)
			for trial := 0; trial < 20; trial++ {
				rng := rand.New(rand.NewSource(int64(100*int(wa) + trial)))
				inst := randInstance(rng, 2+rng.Intn(4), 2+rng.Intn(5))
				m, err := NewModel(inst, mo)
				if err != nil {
					t.Fatal(err)
				}
				requireAttrTermsMatchDense(t, m)
				// One Patch per op of a random delta, checked after each.
				delta := randDelta(rng, inst, 2+rng.Intn(8))
				for step, op := range delta.Ops {
					if err := m.Patch(WorkloadDelta{Ops: []DeltaOp{op}}); err != nil {
						t.Fatalf("trial %d step %d: patch: %v", trial, step, err)
					}
					t.Run(fmt.Sprintf("trial%d/step%d", trial, step), func(t *testing.T) {
						requireAttrTermsMatchDense(t, m)
					})
				}
			}
		})
	}
}
