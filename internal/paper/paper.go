// Package paper constructs every query, lattice, and worst-case database
// instance the paper uses in its examples and figures, so that tests,
// benchmarks, and examples all reproduce exactly the constructions in the
// text:
//
//   - the triangle query and its product instances (Sec. 2, Eq. 4)
//   - the running example Q :- R(x,y), S(y,z), T(z,u), xz→u, yu→x
//     (Eq. 1, Fig. 1) with its skew instance (Example 5.8) and
//     quasi-product instance (Examples 3.8 / 5.5)
//   - the M3 query R(x), S(y), T(z), xy→z, xz→y, yz→x and the
//     i+j+k ≡ 0 (mod N) instance (Sec. 3.2, Example 5.12)
//   - the Fig. 4 query R(abc), S(ade), T(bdf), U(cef) where the chain bound
//     (N^{3/2}) is beaten by the SM bound (N^{4/3}) (Examples 5.18/5.20)
//   - the Fig. 5 query R(x), S(y), z = f(x,y) (Example 5.10)
//   - the Fig. 7 lattice with a non-good SM proof (Example 5.29)
//   - the Fig. 9 lattice/query with no SM proof at all, where CSMA is
//     needed (Example 5.31)
//   - the degree-bounded triangle with colors (Eq. 2) and with explicit
//     degree constraints (Sec. 5.3)
//   - the 4-cycle with a simple key and the xy→z key example (Sec. 2,
//     "Closure")
//   - the named lattices the Fig. 10 taxonomy classifies (Fig10Lattices),
//     and the structure-only N5
package paper

import (
	"fmt"
	"strings"

	"repro/internal/fd"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/varset"
)

// Value aliases the relational value type.
type Value = rel.Value

// isqrt returns ⌊√n⌋.
func isqrt(n int) int {
	if n < 0 {
		panic("paper: isqrt of negative")
	}
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// icbrt returns ⌊n^{1/3}⌋.
func icbrt(n int) int {
	r := 0
	for (r+1)*(r+1)*(r+1) <= n {
		r++
	}
	return r
}

// ---------------------------------------------------------------------------
// Triangle (no FDs)

// Triangle returns the triangle query Q(x,y,z) :- R(x,y), S(y,z), T(z,x)
// with empty relations.
func Triangle() *query.Q {
	q := query.New("x", "y", "z")
	q.AddRel(rel.New("R", 0, 1))
	q.AddRel(rel.New("S", 1, 2))
	q.AddRel(rel.New("T", 2, 0))
	return q
}

// TriangleProduct fills the triangle with the AGM worst-case product
// instance: each relation is [m] × [m], so |R| = m² and |Q| = m³.
func TriangleProduct(m int) *query.Q {
	q := Triangle()
	for _, r := range q.Rels {
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				r.Add(Value(i), Value(j))
			}
		}
	}
	return q
}

// TriangleRandom fills the triangle with nEdges random edges over an
// m-element domain, using a deterministic LCG for reproducibility.
func TriangleRandom(m, nEdges int, seed int64) *query.Q {
	q := Triangle()
	s := uint64(seed)*2862933555777941757 + 3037000493
	next := func() Value {
		s = s*2862933555777941757 + 3037000493
		return Value(s>>33) % Value(m)
	}
	for _, r := range q.Rels {
		for i := 0; i < nEdges; i++ {
			r.Add(next(), next())
		}
		r.SortDedup()
	}
	return q
}

// ---------------------------------------------------------------------------
// Running example (Eq. 1 / Fig. 1)

// Fig1 returns Q(x,y,z,u) :- R(x,y), S(y,z), T(z,u), u = f(x,z), x = g(y,u)
// with the concrete UDFs of Example 5.5: f(x,z) = x and g(y,u) = u. Both
// the skew and quasi-product instances below satisfy these UDFs.
// Variables: x=0, y=1, z=2, u=3.
func Fig1() *query.Q {
	q := query.New("x", "y", "z", "u")
	q.AddRel(rel.New("R", 0, 1))
	q.AddRel(rel.New("S", 1, 2))
	q.AddRel(rel.New("T", 2, 3))
	q.FDs.AddUDF(q.Vars("x", "z"), q.Var("u"), func(a []Value) Value { return a[0] })
	q.FDs.AddUDF(q.Vars("y", "u"), q.Var("x"), func(a []Value) Value { return a[1] })
	return q
}

// Fig1Skew fills Fig1 with the adversarial instance of Example 5.8:
// R = S = T = {(1,i) : i ∈ [N/2]} ∪ {(i,1) : i ∈ [N/2]}. FD-blind
// worst-case-optimal joins need Ω(N²) on it while the Chain Algorithm runs
// in Õ(N^{3/2}).
func Fig1Skew(n int) *query.Q {
	q := Fig1()
	half := n / 2
	for _, r := range q.Rels {
		for i := 1; i <= half; i++ {
			r.Add(1, Value(i))
			r.Add(Value(i), 1)
		}
		r.SortDedup()
	}
	return q
}

// Fig1QuasiProduct fills Fig1 with the quasi-product instance of
// Examples 3.8/5.5: R = S = T = [√N] × [√N]; the output is
// {(i,j,k,i)} of size N^{3/2}, matching the GLVV bound.
func Fig1QuasiProduct(n int) *query.Q {
	q := Fig1()
	m := isqrt(n)
	for _, r := range q.Rels {
		for i := 1; i <= m; i++ {
			for j := 1; j <= m; j++ {
				r.Add(Value(i), Value(j))
			}
		}
	}
	return q
}

// Fig1QuasiProductScript renders the Fig1QuasiProduct instance in the
// .fdq text format (query.Parse / fdq.ParseScript): the Example 5.5 UDFs
// f(x,z) = x and g(y,u) = u are exactly the builtins "first" and "last"
// (UDF arguments arrive in ascending variable order), so the scripted
// query evaluates identically to the hand-built one.
func Fig1QuasiProductScript(n int) string {
	var b strings.Builder
	b.WriteString("vars x y z u\nrel R(x, y)\nrel S(y, z)\nrel T(z, u)\n")
	b.WriteString("fd x z -> u via first\nfd y u -> x via last\n")
	m := isqrt(n)
	for _, name := range []string{"R", "S", "T"} {
		for i := 1; i <= m; i++ {
			for j := 1; j <= m; j++ {
				fmt.Fprintf(&b, "row %s %d %d\n", name, i, j)
			}
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// M3 (Sec. 3.2, Fig. 3, Example 5.12)

// M3 returns Q(x,y,z) :- R(x), S(y), T(z) with xy→z, xz→y, yz→x, where the
// UDFs implement the mod-n instance: the missing coordinate is the one
// making the sum ≡ 0 (mod n). Variables: x=0, y=1, z=2.
func M3(n int) *query.Q {
	q := query.New("x", "y", "z")
	q.AddRel(rel.New("R", 0))
	q.AddRel(rel.New("S", 1))
	q.AddRel(rel.New("T", 2))
	mod := Value(n)
	solve := func(a, b Value) Value { return ((-(a + b))%mod + mod) % mod }
	q.FDs.AddUDF(q.Vars("x", "y"), q.Var("z"), func(a []Value) Value { return solve(a[0], a[1]) })
	q.FDs.AddUDF(q.Vars("x", "z"), q.Var("y"), func(a []Value) Value { return solve(a[0], a[1]) })
	q.FDs.AddUDF(q.Vars("y", "z"), q.Var("x"), func(a []Value) Value { return solve(a[0], a[1]) })
	return q
}

// M3Instance fills M3(n) with R = S = T = [n]; the output
// {(i,j,k) : i+j+k ≡ 0 mod n} has size n², matching the (non-normal) GLVV
// bound and the chain bound, while the co-atomic cover bound n^{3/2} fails.
func M3Instance(n int) *query.Q {
	q := M3(n)
	for _, r := range q.Rels {
		for i := 0; i < n; i++ {
			r.Add(Value(i))
		}
	}
	return q
}

// ---------------------------------------------------------------------------
// Component-encoded lattice queries (Fig. 4 and Fig. 9)
//
// Both worst-case instances are quasi-product: each variable's value is an
// injective encoding of a subset of base coordinates v_1..v_B, each ranging
// over [m]. UDFs decode components from the determining variables and
// re-encode the target variable, which realizes every FD of the closure
// system uniformly.

const compBase = 1 << 20 // component radix in encoded values

// encodeComps packs the values of the chosen components (ascending component
// index) into a single Value. It iterates the set bits directly — UDFs call
// this per expanded tuple, so it must not allocate.
func encodeComps(comps varset.Set, base []Value) Value {
	var out Value
	for t := comps; !t.IsEmpty(); {
		c := t.Min()
		out = out*compBase + base[c] + 1
		t = t.Remove(c)
	}
	return out
}

// decodeComps unpacks a value encoded by encodeComps back into the base
// array positions of comps (descending members: the inverse packing order),
// allocation-free like encodeComps.
func decodeComps(comps varset.Set, v Value, base []Value) {
	for t := comps; !t.IsEmpty(); {
		c := t.Max()
		base[c] = v%compBase - 1
		v /= compBase
		t = t.Remove(c)
	}
}

// compUDFProvider returns an fd.Set UDF provider for variables whose values
// encode component sets: comps[v] lists the base coordinates variable v
// encodes.
func compUDFProvider(comps []varset.Set) func(from varset.Set, to int) fd.UDF {
	return func(from varset.Set, to int) fd.UDF {
		fromVars := from.Members()
		target := comps[to]
		// Check derivability: the union of the sources' components must
		// contain the target's components.
		var avail varset.Set
		for _, v := range fromVars {
			avail = avail.Union(comps[v])
		}
		if !avail.ContainsAll(target) {
			return nil
		}
		return func(args []Value) Value {
			base := make([]Value, 8)
			for i, v := range fromVars {
				decodeComps(comps[v], args[i], base)
			}
			return encodeComps(target, base)
		}
	}
}

// Fig4 returns the query of Fig. 4: R(a,b,c), S(a,d,e), T(b,d,f), U(c,e,f)
// over the 12-element lattice {0̂, a..f, abc, ade, bdf, cef, 1̂}. Any two
// variables not sharing an input determine everything; within a triple, two
// variables determine the third. Variables a..f = 0..5.
//
// Component encoding (Example 5.25's worst case): four base coordinates
// v1..v4, one per co-atom/input (abc↦1, ade↦2, bdf↦3, cef↦4); each variable
// encodes the coordinates of the two inputs it does NOT belong to:
// a↦{3,4}, b↦{2,4}, c↦{2,3}, d↦{1,4}, e↦{1,3}, f↦{1,2}.
func Fig4() (*query.Q, []varset.Set) {
	q := query.New("a", "b", "c", "d", "e", "f")
	q.AddRel(rel.New("R", 0, 1, 2))
	q.AddRel(rel.New("S", 0, 3, 4))
	q.AddRel(rel.New("T", 1, 3, 5))
	q.AddRel(rel.New("U", 2, 4, 5))

	family := []varset.Set{
		varset.Empty,
		varset.Of(0), varset.Of(1), varset.Of(2), varset.Of(3), varset.Of(4), varset.Of(5),
		varset.Of(0, 1, 2), varset.Of(0, 3, 4), varset.Of(1, 3, 5), varset.Of(2, 4, 5),
		varset.Universe(6),
	}
	closure := familyClosure(6, family)
	q.FDs = fd.FromClosure(6, closure)

	comps := []varset.Set{
		varset.Of(2, 3), // a: not in bdf(3), cef(4) → coords 3,4 (0-based 2,3)
		varset.Of(1, 3), // b
		varset.Of(1, 2), // c
		varset.Of(0, 3), // d
		varset.Of(0, 2), // e
		varset.Of(0, 1), // f
	}
	q.FDs.AttachUDFs(compUDFProvider(comps))
	return q, comps
}

// familyClosure builds the closure operator of an intersection-closed
// family: closure(X) is the smallest member containing X.
func familyClosure(k int, family []varset.Set) func(varset.Set) varset.Set {
	u := varset.Universe(k)
	return func(x varset.Set) varset.Set {
		best := u
		for _, e := range family {
			if e.ContainsAll(x) && best.ContainsAll(e) {
				best = e
			}
		}
		return best
	}
}

// Fig4Instance fills Fig4 with the quasi-product worst case for total input
// size ~n per relation: base coordinates range over [m] with m = ⌊n^{1/3}⌋,
// each relation has m³ ≈ n tuples, and the output has m⁴ ≈ n^{4/3} tuples.
func Fig4Instance(n int) (*query.Q, int) {
	q, comps := Fig4()
	m := icbrt(n)
	base := make([]Value, 4)
	fill := func(r *rel.Relation, free []int, vars []int) {
		var rec func(d int)
		rec = func(d int) {
			if d == len(free) {
				t := make(rel.Tuple, len(vars))
				for i, v := range vars {
					t[i] = encodeComps(comps[v], base)
				}
				r.AddTuple(t)
				return
			}
			for i := 0; i < m; i++ {
				base[free[d]] = Value(i)
				rec(d + 1)
			}
		}
		rec(0)
	}
	// R(a,b,c) encodes coords {2,3}∪{1,3}∪{1,2} = {1,2,3}; free coords per
	// relation are the union of its variables' components.
	for ri, r := range q.Rels {
		var cs varset.Set
		for _, v := range r.Attrs {
			cs = cs.Union(comps[v])
		}
		_ = ri
		fill(r, cs.Members(), r.Attrs)
	}
	return q, m
}

// ---------------------------------------------------------------------------
// Fig. 5 (Example 5.10): R(x), S(y), z = f(x,y)

// Fig5 returns Q(x,y,z) :- R(x), S(y), z = f(x,y) with f(x,y) = x·2^20 + y.
// Variables: x=0, y=1, z=2.
func Fig5() *query.Q {
	q := query.New("x", "y", "z")
	q.AddRel(rel.New("R", 0))
	q.AddRel(rel.New("S", 1))
	q.FDs.AddUDF(q.Vars("x", "y"), q.Var("z"), func(a []Value) Value {
		return a[0]*compBase + a[1]
	})
	return q
}

// Fig5Instance fills Fig5 with R = S = [n]; the output has n² tuples, which
// is the chain bound on the Corollary 5.9 chain 0̂ ≺ x ≺ 1̂.
func Fig5Instance(n int) *query.Q {
	q := Fig5()
	for _, r := range q.Rels[:2] {
		for i := 0; i < n; i++ {
			r.Add(Value(i))
		}
	}
	return q
}

// ---------------------------------------------------------------------------
// Fig. 7 lattice (Example 5.29): an SM proof that is not good exists.

// Fig7Family returns the 10-element lattice of Fig. 7 as a closure family
// over 6 variables c=0, b=1, z=2, x=3, y=4, u=5:
// C={c}, B={b}, Z={c,z}, X={c,b,x}, Y={b,y}, U={u}, A=X∨Y, D=B∨U=Y∨U.
func Fig7Family() []varset.Set {
	return []varset.Set{
		varset.Empty,
		varset.Of(0),          // C
		varset.Of(1),          // B
		varset.Of(0, 2),       // Z
		varset.Of(0, 1, 3),    // X
		varset.Of(1, 4),       // Y
		varset.Of(5),          // U
		varset.Of(0, 1, 3, 4), // A = X ∨ Y
		varset.Of(1, 4, 5),    // D = B ∨ U = Y ∨ U
		varset.Universe(6),
	}
}

// N5Family returns the pentagon N5 as a closure family over 3 variables:
// the chain ∅ < {x} < {x,y} < {x,y,z} with {z} beside it. It is normal
// but not modular.
func N5Family() []varset.Set {
	return []varset.Set{varset.Empty, varset.Of(0), varset.Of(0, 1), varset.Of(2), varset.Of(0, 1, 2)}
}

// NamedLattice is one lattice the paper names, carried by a query instance
// whose FD lattice it is.
type NamedLattice struct {
	Label string
	Query *query.Q
}

// Fig10Lattices returns the named lattices that have an instance, in the
// order the Fig. 10 taxonomy lists them: the Boolean algebra, Fig. 1, M3,
// Figs. 4, 5 and 9, and simple FDs. N5 and Fig. 7 are structure-only (see
// N5Family and Fig7Family).
func Fig10Lattices() []NamedLattice {
	q4, _ := Fig4Instance(27)
	q9, _ := Fig9Instance(16)
	return []NamedLattice{
		{"Boolean algebra (triangle)", TriangleProduct(3)},
		{"Fig.1 running example", Fig1QuasiProduct(16)},
		{"M3 (Fig.3 right)", M3Instance(8)},
		{"Fig.4 (chain bound not tight)", q4},
		{"Fig.5 (z = f(x,y))", Fig5Instance(8)},
		{"Fig.9 (no SM proof)", q9},
		{"simple FDs (Prop. 3.2)", SimpleFDChain(4, 16)},
	}
}

// ---------------------------------------------------------------------------
// Fig. 9 (Example 5.31): no SM proof exists; CSMA required.

// fig9Comps lists, per variable, the base coordinates (d,e,f) = (0,1,2) the
// variable encodes: D,E,F are the coordinates; M=(d,e), N=(d,f), O=(e,f);
// P,S,T = (d,e,f).
func fig9Comps() []varset.Set {
	return []varset.Set{
		varset.Of(0), varset.Of(1), varset.Of(2), // D, E, F
		varset.Of(0, 1, 2), varset.Of(0, 1, 2), varset.Of(0, 1, 2), // P, S, T
		varset.Of(0, 1), varset.Of(0, 2), varset.Of(1, 2), // M, N, O
	}
}

// Fig9Family returns the 18-element lattice of Fig. 9 as a closure family
// over 9 variables D=0, E=1, F=2, P=3, S=4, T=5, M=6, N=7, O=8. The lower
// half {0̂,D,E,F,G,I,J,Z} and upper half {Z,P,S,T,U,V,W,1̂} are Boolean
// cubes glued at Z, with inputs M, N, O attached between them.
func Fig9Family() []varset.Set {
	return []varset.Set{
		varset.Empty,
		varset.Of(0), varset.Of(1), varset.Of(2), // D, E, F
		varset.Of(0, 1), varset.Of(0, 2), varset.Of(1, 2), // G, I, J
		varset.Of(0, 1, 6), varset.Of(0, 2, 7), varset.Of(1, 2, 8), // M, N, O
		varset.Of(0, 1, 2),                                                  // Z
		varset.Of(0, 1, 2, 3), varset.Of(0, 1, 2, 4), varset.Of(0, 1, 2, 5), // P, S, T
		varset.Of(0, 1, 2, 3, 4, 6), // U = M ∨ Z (⊇ P, S)
		varset.Of(0, 1, 2, 3, 5, 7), // V = N ∨ Z (⊇ P, T)
		varset.Of(0, 1, 2, 4, 5, 8), // W = O ∨ Z (⊇ S, T)
		varset.Universe(9),
	}
}

// Fig9 returns the Fig. 9 query: inputs T(M) = (D,E,M), T(N) = (D,F,N),
// T(O) = (E,F,O) under the FDs of the Fig. 9 closure system, with UDFs
// realizing the component encoding.
func Fig9() *query.Q {
	q := query.New("D", "E", "F", "P", "S", "T", "M", "N", "O")
	q.AddRel(rel.New("TM", 0, 1, 6))
	q.AddRel(rel.New("TN", 0, 2, 7))
	q.AddRel(rel.New("TO", 1, 2, 8))
	closure := familyClosure(9, Fig9Family())
	q.FDs = fd.FromClosure(9, closure)
	q.FDs.AttachUDFs(compUDFProvider(fig9Comps()))
	return q
}

// Fig9Instance fills Fig9 with the worst case for per-relation size n:
// base coordinates d,e,f over [m], m = ⌊√n⌋, so |T(M)| = m² = n and the
// output has m³ = n^{3/2} tuples.
func Fig9Instance(n int) (*query.Q, int) {
	q := Fig9()
	m := isqrt(n)
	comps := fig9Comps()
	base := make([]Value, 3)
	for _, r := range q.Rels {
		var cs varset.Set
		for _, v := range r.Attrs {
			cs = cs.Union(comps[v])
		}
		free := cs.Members()
		var rec func(d int)
		rec = func(d int) {
			if d == len(free) {
				t := make(rel.Tuple, len(r.Attrs))
				for i, v := range r.Attrs {
					t[i] = encodeComps(comps[v], base)
				}
				r.AddTuple(t)
				return
			}
			for i := 0; i < m; i++ {
				base[free[d]] = Value(i)
				rec(d + 1)
			}
		}
		rec(0)
	}
	return q, m
}

// ---------------------------------------------------------------------------
// Degree-bounded triangle (Eq. 2 and Sec. 5.3)

// DegreeTriangle returns the triangle query with explicit degree bounds on
// R: out-degree (x → xy) ≤ d1 and in-degree (y → xy) ≤ d2, realized by a
// circulant instance with nEdges edges over ⌈nEdges/d1⌉ x-values: each x
// has edges to d1 consecutive y values (mod the domain). The same relation
// content is used for S and T (sizes equal), shifted to keep the query
// non-trivial.
func DegreeTriangle(nEdges, d1 int) *query.Q {
	q := Triangle()
	a := (nEdges + d1 - 1) / d1 // number of x values
	R, S, T := q.Rels[0], q.Rels[1], q.Rels[2]
	for x := 0; x < a; x++ {
		for i := 0; i < d1; i++ {
			y := Value((x + i) % a)
			R.Add(Value(x), y)
			S.Add(y, Value((x+2*i)%a))
			T.Add(Value((x+2*i)%a), Value(x))
		}
	}
	R.SortDedup()
	S.SortDedup()
	T.SortDedup()
	// Degree bounds guarded in R: each x has ≤ d1 ys, each y ≤ d1 xs
	// (circulant symmetry).
	q.AddDegreeBound(q.Vars("x"), q.Vars("x", "y"), d1, 0)
	q.AddDegreeBound(q.Vars("y"), q.Vars("x", "y"), d1, 0)
	return q
}

// ColoredTriangle returns the Eq. (2) formulation: colors c1, c2 with
// R(x,c1,c2,y), S(y,z), T(z,x), C1(c1), C2(c2) and guarded FDs
// xc1 → y, yc2 → x, xy → c1c2, built over the same circulant instance as
// DegreeTriangle. Variables: x=0, y=1, z=2, c1=3, c2=4.
func ColoredTriangle(nEdges, d int) *query.Q {
	q := query.New("x", "y", "z", "c1", "c2")
	R := rel.New("R", 0, 3, 4, 1)
	S := rel.New("S", 1, 2)
	T := rel.New("T", 2, 0)
	C1 := rel.New("C1", 3)
	C2 := rel.New("C2", 4)
	a := (nEdges + d - 1) / d
	// Edge (x, y=(x+i) mod a) gets out-color i; in-color of y's j-th
	// incoming edge is j (y-i ≡ x means color i again by symmetry).
	for x := 0; x < a; x++ {
		for i := 0; i < d; i++ {
			y := (x + i) % a
			R.Add(Value(x), Value(i), Value(i), Value(y))
			S.Add(Value(y), Value((x+2*i)%a))
			T.Add(Value((x+2*i)%a), Value(x))
		}
	}
	for i := 0; i < d; i++ {
		C1.Add(Value(i))
		C2.Add(Value(i))
	}
	R.SortDedup()
	S.SortDedup()
	T.SortDedup()
	q.AddRel(R)
	q.AddRel(S)
	q.AddRel(T)
	q.AddRel(C1)
	q.AddRel(C2)
	q.FDs.AddGuarded(q.Vars("x", "c1"), q.Vars("y"), 0)
	q.FDs.AddGuarded(q.Vars("y", "c2"), q.Vars("x"), 0)
	q.FDs.AddGuarded(q.Vars("x", "y"), q.Vars("c1", "c2"), 0)
	return q
}

// ---------------------------------------------------------------------------
// Closure / simple-key examples (Sec. 2)

// FourCycleWithKey returns Q :- R(x,y), S(y,z), T(z,u), K(u,x) with the
// simple key y → z guarded in S, filled so that |R|=|S|=|T|=|K|=n.
// Variables: x=0, y=1, z=2, u=3.
func FourCycleWithKey(n int) *query.Q {
	q := query.New("x", "y", "z", "u")
	R := rel.New("R", 0, 1)
	S := rel.New("S", 1, 2)
	T := rel.New("T", 2, 3)
	K := rel.New("K", 3, 0)
	for i := 0; i < n; i++ {
		R.Add(Value(i), Value(i))
		S.Add(Value(i), Value(i)) // y → z holds: z = y
		T.Add(Value(i), Value(i))
		K.Add(Value(i), Value(i))
	}
	q.AddRel(R)
	q.AddRel(S)
	q.AddRel(T)
	q.AddRel(K)
	q.FDs.AddGuarded(q.Vars("y"), q.Vars("z"), 1)
	return q
}

// CompositeKey returns Q(x,y,z) :- R(x), S(y), T(x,y,z) where xy is a key
// of T (Sec. 2): with |R| = |S| = n and |T| = mT ≫ n², AGM(Q⁺) = mT is
// loose while GLVV gives n². T is filled with mT key-consistent tuples.
func CompositeKey(n, mT int) *query.Q {
	q := query.New("x", "y", "z")
	R := rel.New("R", 0)
	S := rel.New("S", 1)
	T := rel.New("T", 0, 1, 2)
	for i := 0; i < n; i++ {
		R.Add(Value(i))
		S.Add(Value(i))
	}
	side := isqrt(mT)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			T.Add(Value(i), Value(j), Value(i+j)) // z = x + y: xy → z holds
		}
	}
	q.AddRel(R)
	q.AddRel(S)
	q.AddRel(T)
	q.FDs.AddGuarded(q.Vars("x", "y"), q.Vars("z"), 2)
	return q
}

// SimpleFDChain returns a query over k variables x0..x{k-1} with relations
// R_i(x_i, x_{i+1}) and simple FDs x_i → x_{i+1} for even i, filled with n
// FD-consistent tuples each. Its lattice is distributive (Prop. 3.2).
func SimpleFDChain(k, n int) *query.Q {
	names := make([]string, k)
	for i := range names {
		names[i] = "x" + string(rune('0'+i))
	}
	q := query.New(names...)
	for i := 0; i+1 < k; i++ {
		r := rel.New("R"+names[i], i, i+1)
		for t := 0; t < n; t++ {
			if i%2 == 0 {
				r.Add(Value(t), Value(t%7)) // x_i → x_{i+1} holds
			} else {
				r.Add(Value(t%7), Value(t))
			}
		}
		r.SortDedup()
		ri := q.AddRel(r)
		if i%2 == 0 {
			q.FDs.AddGuarded(varset.Single(i), varset.Single(i+1), ri)
		}
	}
	return q
}
