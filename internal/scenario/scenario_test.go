package scenario

import (
	"slices"
	"testing"

	"repro/internal/naive"
	"repro/internal/paper"
)

// Every catalog instance — full tier, which includes the small tier — must
// build, validate (data consistent with its declared FDs and degree
// bounds), and be reproducible: building twice yields byte-identical
// relations. Build+Validate is cheap (no oracle matrix), so the committed
// evidence params can't rot between CONFORMANCE.json regenerations.
func TestCatalogBuildsAndValidates(t *testing.T) {
	for _, in := range Instances(TierFull) {
		in := in
		t.Run(in.Name, func(t *testing.T) {
			q := in.Build()
			if err := q.Validate(); err != nil {
				t.Fatalf("instance does not validate: %v", err)
			}
			if q.TotalSize() == 0 {
				t.Fatal("instance is empty")
			}
			q2 := in.Build()
			if len(q.Rels) != len(q2.Rels) {
				t.Fatal("rebuild changed relation count")
			}
			for j := range q.Rels {
				a, b := q.Rels[j], q2.Rels[j]
				if a.Len() != b.Len() || a.Arity() != b.Arity() {
					t.Fatalf("rebuild changed relation %d shape", j)
				}
				for i := 0; i < a.Len(); i++ {
					ra, rb := a.Row(i), b.Row(i)
					for c := range ra {
						if ra[c] != rb[c] {
							t.Fatalf("rebuild changed relation %d row %d", j, i)
						}
					}
				}
			}
		})
	}
}

func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Catalog() {
		if seen[f.Name] {
			t.Fatalf("duplicate family name %q", f.Name)
		}
		seen[f.Name] = true
		if len(f.Small) == 0 {
			t.Fatalf("family %q has no small-tier params", f.Name)
		}
		if f.Desc == "" {
			t.Fatalf("family %q has no description", f.Name)
		}
	}
	names := map[string]bool{}
	for _, in := range Instances(TierFull) {
		if names[in.Name] {
			t.Fatalf("duplicate instance name %q", in.Name)
		}
		names[in.Name] = true
	}
}

func TestFullTierIncludesSmall(t *testing.T) {
	small := len(Instances(TierSmall))
	full := len(Instances(TierFull))
	if full <= small {
		t.Fatalf("full tier (%d) must extend the small tier (%d)", full, small)
	}
}

func TestParseTier(t *testing.T) {
	if tr, err := ParseTier("small"); err != nil || tr != TierSmall {
		t.Fatalf("small: got %v, %v", tr, err)
	}
	if tr, err := ParseTier("full"); err != nil || tr != TierFull {
		t.Fatalf("full: got %v, %v", tr, err)
	}
	if _, err := ParseTier("medium"); err == nil {
		t.Fatal("expected error for unknown tier")
	}
}

// The worst-case families exist to saturate their bounds; spot-check the
// AGM product construction really attains the product of the domains.
func TestAGMProductSaturates(t *testing.T) {
	q := AGMProduct(32, 1)
	out := naive.Evaluate(q)
	if out.Len() == 0 {
		t.Fatal("AGM product instance has empty output")
	}
	// Each relation is a full product of its variables' domains, so the
	// output must be the product of all three domain sizes.
	total := 1
	for v := 0; v < q.K; v++ {
		seen := map[Value]bool{}
		for _, r := range q.Rels {
			c := r.Col(v)
			if c < 0 {
				continue
			}
			for i := 0; i < r.Len(); i++ {
				seen[r.Row(i)[c]] = true
			}
		}
		total *= len(seen)
	}
	if out.Len() != total {
		t.Fatalf("AGM product output %d != product of domains %d", out.Len(), total)
	}
}

func TestProductInstanceRejectsFDs(t *testing.T) {
	q := paper.Fig1QuasiProduct(4)
	if _, err := ProductInstance(q); err == nil {
		t.Fatal("product instances are only defined without FDs")
	}
}

// TestZipfHotIsStaticAdversarial pins the property skew/zipf-hot exists
// for: its planted hubs all hash into ONE static partition at 4 workers
// (so a one-partition-per-worker scheduler serializes most of the output
// mass) while sitting far apart in x's value-rank order (so value-range
// morsels separate them and stealing can spread the mass).
func TestZipfHotIsStaticAdversarial(t *testing.T) {
	const hubs, workers = 4, 4
	q := ZipfHot(48, 1)
	hub := zipfHotHubs(hubs, workers, 64*hubs)
	isHub := map[Value]bool{}
	for _, h := range hub[1:] {
		if staticPartOf(h, workers) != staticPartOf(hub[0], workers) {
			t.Fatalf("hubs %v do not collide under the static hash", hub)
		}
	}
	for _, h := range hub {
		isHub[h] = true
	}

	// ≥ half the output mass lives on the hub values of x.
	out := naive.Evaluate(q)
	hot := 0
	for i := 0; i < out.Len(); i++ {
		if isHub[out.Row(i)[0]] {
			hot++
		}
	}
	if out.Len() == 0 || hot*2 < out.Len() {
		t.Fatalf("hub mass %d of %d output rows: instance is not hub-dominated", hot, out.Len())
	}

	// Hubs are spread in rank order: with ≥16 morsels over x's distinct
	// values, consecutive hubs are more than one morsel span apart.
	seen := map[Value]bool{}
	for _, r := range q.Rels {
		c := r.Col(0)
		if c < 0 {
			continue
		}
		for i := 0; i < r.Len(); i++ {
			seen[r.Row(i)[c]] = true
		}
	}
	vals := make([]Value, 0, len(seen))
	for v := range seen {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	rank := func(h Value) int { n, _ := slices.BinarySearch(vals, h); return n }
	span := len(vals) / 16
	for i := 1; i < len(hub); i++ {
		if gap := rank(hub[i]) - rank(hub[i-1]); gap <= span {
			t.Fatalf("hub rank gap %d ≤ morsel span %d (D=%d): hubs share a morsel", gap, span, len(vals))
		}
	}
}
