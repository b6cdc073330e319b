package harness

import (
	"strings"
	"testing"
)

func quickOpts() Options { return Options{Quick: true, Seed: 42} }

func TestTableRendering(t *testing.T) {
	table := NewTable("Demo", "a", "bbbb", "c")
	table.AddRow("1", "2", "3")
	table.AddRow("1000", "2", "33")
	table.AddNote("hello %d", 7)
	s := table.String()
	if !strings.Contains(s, "Demo\n====") {
		t.Fatalf("missing title underline:\n%s", s)
	}
	if !strings.Contains(s, "a     bbbb  c") {
		t.Fatalf("misaligned header:\n%s", s)
	}
	if !strings.Contains(s, "note: hello 7") {
		t.Fatalf("missing note:\n%s", s)
	}
	tsv := table.TSV()
	if !strings.HasPrefix(tsv, "a\tbbbb\tc\n1\t2\t3\n") {
		t.Fatalf("TSV wrong:\n%s", tsv)
	}
}

func TestAllAndLookup(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("expected 12 experiments, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Name == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Lookup("E3"); !ok {
		t.Fatalf("lookup of E3 failed")
	}
	for _, id := range []string{"E42", "E8", "E12", "E19", "E20"} {
		if _, ok := Lookup(id); ok {
			t.Fatalf("lookup of unknown experiment %s should fail", id)
		}
	}
}

func TestOptionsHelpers(t *testing.T) {
	if (Options{}).trials(10, 3) != 10 {
		t.Fatalf("default trials wrong")
	}
	if (Options{Quick: true}).trials(10, 3) != 3 {
		t.Fatalf("quick trials wrong")
	}
	if (Options{Trials: 7}).trials(10, 3) != 7 {
		t.Fatalf("explicit trials wrong")
	}
	if (Options{}).rng() == nil || (Options{Seed: 9}).rng() == nil {
		t.Fatalf("rng helper broke")
	}
}

func TestE1ClassifierScaling(t *testing.T) {
	table, err := E1ClassifierScaling(quickOpts())
	if err != nil {
		t.Fatalf("%v", err)
	}
	if len(table.Rows) != 5*3 {
		t.Fatalf("expected 15 rows, got %d", len(table.Rows))
	}
	if len(table.Notes) == 0 {
		t.Fatalf("expected fitted-exponent notes")
	}
}

func TestE2ElectionRounds(t *testing.T) {
	table, err := E2ElectionRounds(quickOpts())
	if err != nil {
		t.Fatalf("%v", err)
	}
	if len(table.Rows) == 0 {
		t.Fatalf("no rows")
	}
	for _, row := range table.Rows {
		if len(row) != len(table.Columns) {
			t.Fatalf("row width mismatch: %v", row)
		}
	}
}

func TestE3LineFamily(t *testing.T) {
	table, err := E3LineFamily(quickOpts())
	if err != nil {
		t.Fatalf("%v", err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(table.Rows))
	}
}

func TestE4SpanFamily(t *testing.T) {
	table, err := E4SpanFamily(quickOpts())
	if err != nil {
		t.Fatalf("%v", err)
	}
	for _, row := range table.Rows {
		if row[5] != "true" {
			t.Fatalf("lower bound not satisfied in row %v", row)
		}
	}
}

func TestE5Universal(t *testing.T) {
	table, err := E5Universal(quickOpts())
	if err != nil {
		t.Fatalf("%v", err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("expected 2 candidate rows, got %d", len(table.Rows))
	}
	for _, row := range table.Rows {
		if row[2] != "true" || row[3] != "no" {
			t.Fatalf("unexpected verdict row %v", row)
		}
	}
}

func TestE6Decision(t *testing.T) {
	table, err := E6Decision(quickOpts())
	if err != nil {
		t.Fatalf("%v", err)
	}
	for _, row := range table.Rows {
		if row[4] != "true" {
			t.Fatalf("pair should be indistinguishable: %v", row)
		}
	}
}

func TestE7Survey(t *testing.T) {
	table, err := E7Survey(quickOpts())
	if err != nil {
		t.Fatalf("%v", err)
	}
	for _, row := range table.Rows {
		// Oracle agreement must be total.
		if !strings.HasPrefix(row[5], row[2]+"/") && row[5] != row[2]+"/"+row[2] {
			t.Fatalf("oracle disagreement in row %v", row)
		}
	}
}

func TestE10Structure(t *testing.T) {
	table, err := E10Structure(quickOpts())
	if err != nil {
		t.Fatalf("%v", err)
	}
	if len(table.Rows) != 6 {
		t.Fatalf("expected 6 rows, got %d", len(table.Rows))
	}
	if len(table.Notes) != 2 {
		t.Fatalf("expected 2 notes, got %d", len(table.Notes))
	}
}

func TestE9Baselines(t *testing.T) {
	table, err := E9Baselines(quickOpts())
	if err != nil {
		t.Fatalf("%v", err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(table.Rows))
	}
}

func TestE11Symmetry(t *testing.T) {
	table, err := E11Symmetry(quickOpts())
	if err != nil {
		t.Fatalf("%v", err)
	}
	for _, row := range table.Rows {
		if row[6] != "0" {
			t.Fatalf("symmetry certificate contradicted the classifier: %v", row)
		}
	}
}

func TestA1RefineAblation(t *testing.T) {
	table, err := A1RefineAblation(quickOpts())
	if err != nil {
		t.Fatalf("%v", err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("expected 4 rows (2 workloads x 2 sizes), got %d", len(table.Rows))
	}
}

func TestRunAllQuick(t *testing.T) {
	var sb strings.Builder
	if err := RunAll(quickOpts(), &sb); err != nil {
		t.Fatalf("%v", err)
	}
	out := sb.String()
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E9", "E10", "E11", "E18", "A1"} {
		if !strings.Contains(out, "## "+id) {
			t.Fatalf("RunAll output missing %s", id)
		}
	}
}

func TestE18FaultedMedium(t *testing.T) {
	table, err := E18FaultedMedium(quickOpts())
	if err != nil {
		t.Fatalf("%v", err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("expected 4 quick operating points, got %d", len(table.Rows))
	}
	// The clean point must be all-correct; the drop=0.5 noise=0.1 point must
	// actually break something, otherwise the faults are not being applied.
	if clean := table.Rows[0]; clean[3][:len(clean[3])-len(" (100%)")] == "0" {
		t.Fatalf("clean point elected nothing: %v", clean)
	}
	harsh := table.Rows[len(table.Rows)-1]
	if harsh[3] == table.Rows[0][3] {
		t.Fatalf("harsh fault point matched the clean point exactly: %v", harsh)
	}
}
