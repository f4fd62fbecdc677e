package sciql

import "testing"

// BenchmarkFigure4 times the classification query alone at the service
// grid (150×125), no vault or georeference, its thresholds bound as
// parameters the way the SciQL chain binds them: by day, where hardly a
// cell passes the first conjunct, and at night, where most cells do.
func BenchmarkFigure4(b *testing.B) {
	stmt, err := ParseStmt(figure4Thresholds(":t039", ":diff_fire", ":diff_potential", ":std039_fire", ":std039_pot", ":std108_max"))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		setup func(*Engine)
		th    map[string]float64
	}{
		{"day", figure4Day, map[string]float64{"t039": 310, "diff_fire": 10, "diff_potential": 8, "std039_fire": 4, "std039_pot": 2.5, "std108_max": 2}},
		{"night", figure4Night, map[string]float64{"t039": 290, "diff_fire": 8, "diff_potential": 6, "std039_fire": 3, "std039_pot": 2, "std108_max": 2}},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := NewEngine()
			c.setup(e)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := e.ExecParams(stmt, c.th); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFigure4Selectivity pins what the service-grid catalogs exercise: by
// day at most 1 % of the cells pass v039 > t039, at night at least half.
func TestFigure4Selectivity(t *testing.T) {
	for _, c := range []struct {
		name   string
		setup  func(*Engine)
		t039   string
		lo, hi float64
	}{
		{"day", figure4Day, "310", 0, 0.01},
		{"night", figure4Night, "290", 0.5, 1},
	} {
		e := NewEngine()
		c.setup(e)
		d := mustDense(t, mustExec(t, e, `SELECT v FROM hrit_T039_image_array WHERE v > `+c.t039))
		pass := 0
		for _, ok := range d.Validity() {
			pass += b2i(ok)
		}
		if share := float64(pass) / float64(d.Len()); share < c.lo || share > c.hi {
			t.Errorf("%s: %.3f of the cells pass v039 > %s, want [%g, %g]", c.name, share, c.t039, c.lo, c.hi)
		}
	}
}
