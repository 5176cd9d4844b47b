package benchcases

import "testing"

// Every case must set up and run cleanly, and its benchmark and record
// names must be unique, or a family's sub-benchmarks or BENCH_N.json
// entries would collide.
func TestCasesRun(t *testing.T) {
	benches, records := map[string]bool{}, map[string]bool{}
	for _, c := range Cases() {
		name := c.Family + "/" + c.Sub
		if benches[name] || (c.Record != "" && records[c.Record]) {
			t.Fatalf("duplicate case %s (record %q)", name, c.Record)
		}
		benches[name], records[c.Record] = true, true
		op, err := c.Setup()
		if err != nil {
			t.Fatalf("%s: setup: %v", name, err)
		}
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if len(Family("E1")) != 4 || len(Family("Limit1")) != 6 {
		t.Fatalf("Family lost cases: E1 %d, Limit1 %d", len(Family("E1")), len(Family("Limit1")))
	}
}
