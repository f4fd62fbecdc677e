package sciql

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/array"
)

func mustExec(t *testing.T, e *Engine, src string) *Frame {
	t.Helper()
	f, err := e.Exec(src)
	if err != nil {
		t.Fatalf("exec: %v\nstatement:\n%s", err, src)
	}
	return f
}

func TestCreateInsertSelect(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE ARRAY a (x INTEGER DIMENSION [0:4], y INTEGER DIMENSION [0:3], v FLOAT)`)
	mustExec(t, e, `INSERT INTO a VALUES (0,0,1), (1,0,2), (2,0,3), (0,1,10), (1,1,20)`)
	f := mustExec(t, e, `SELECT [x], [y], v FROM a`)
	if f.W != 4 || f.H != 3 {
		t.Fatalf("dims = %dx%d", f.W, f.H)
	}
	d, err := f.Dense("v")
	if err != nil {
		t.Fatal(err)
	}
	if d.Get(1, 1) != 20 || d.Get(2, 0) != 3 {
		t.Fatalf("values wrong: %g %g", d.Get(1, 1), d.Get(2, 0))
	}
}

func TestCreateArrayValidation(t *testing.T) {
	e := NewEngine()
	if _, err := e.Exec(`CREATE ARRAY bad (x INTEGER DIMENSION, v FLOAT)`); err == nil {
		t.Fatal("1-dimensional array should be rejected")
	}
	if _, err := e.Exec(`CREATE ARRAY bad (x INTEGER DIMENSION, y INTEGER DIMENSION)`); err == nil {
		t.Fatal("array without value column should be rejected")
	}
	mustExec(t, e, `CREATE ARRAY a (x INTEGER DIMENSION [0:2], y INTEGER DIMENSION [0:2], v FLOAT)`)
	if _, err := e.Exec(`CREATE ARRAY a (x INTEGER DIMENSION [0:2], y INTEGER DIMENSION [0:2], v FLOAT)`); err == nil {
		t.Fatal("duplicate CREATE should fail")
	}
}

func TestDropArray(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE ARRAY a (x INTEGER DIMENSION [0:2], y INTEGER DIMENSION [0:2], v FLOAT)`)
	mustExec(t, e, `DROP ARRAY a`)
	if _, err := e.Exec(`SELECT v FROM a`); err == nil {
		t.Fatal("dropped array should be unknown")
	}
	if _, err := e.Exec(`DROP ARRAY a`); err == nil {
		t.Fatal("double drop should fail")
	}
}

func TestInsertValuesOutOfRange(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE ARRAY a (x INTEGER DIMENSION [0:2], y INTEGER DIMENSION [0:2], v FLOAT)`)
	if _, err := e.Exec(`INSERT INTO a VALUES (5, 5, 1)`); err == nil {
		t.Fatal("out-of-range insert should fail")
	}
	if _, err := e.Exec(`INSERT INTO a VALUES (0, 0)`); err == nil {
		t.Fatal("short row should fail")
	}
}

func TestWhereCropping(t *testing.T) {
	e := NewEngine()
	d := array.New(10, 10)
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			d.Set(x, y, float64(y*10+x))
		}
	}
	e.RegisterArray("img", d, "v")
	f := mustExec(t, e, `SELECT [x], [y], v FROM img WHERE x >= 2 AND x < 5 AND y >= 3 AND y < 6`)
	if f.W != 3 || f.H != 3 || f.X0 != 2 || f.Y0 != 3 {
		t.Fatalf("crop = origin(%d,%d) %dx%d", f.X0, f.Y0, f.W, f.H)
	}
	dd, _ := f.Dense("v")
	if dd.Get(2, 3) != 32 {
		t.Fatalf("cropped value = %g", dd.Get(2, 3))
	}
	// BETWEEN form.
	f2 := mustExec(t, e, `SELECT v FROM img WHERE x BETWEEN 2 AND 4 AND y BETWEEN 3 AND 5`)
	if f2.W != 3 || f2.H != 3 {
		t.Fatalf("between crop = %dx%d", f2.W, f2.H)
	}
	// Whole equality crops to one column; <> and arithmetic on a
	// dimension are cell predicates, masking cells of a whole frame.
	if f := mustExec(t, e, `SELECT v FROM img WHERE x = 3`); f.X0 != 3 || f.W != 1 || f.H != 10 || mustDense(t, f).Get(3, 4) != 43 {
		t.Fatalf("x = 3 gives origin(%d,%d) %dx%d", f.X0, f.Y0, f.W, f.H)
	}
	ne := mustExec(t, e, `SELECT v FROM img WHERE x <> 1`)
	if d := mustDense(t, ne); ne.W != 10 || ne.H != 10 || d.Valid(1, 4) || !d.Valid(2, 4) {
		t.Fatalf("x <> 1 gives %dx%d, (1,4) valid %v, (2,4) valid %v", ne.W, ne.H, d.Valid(1, 4), d.Valid(2, 4))
	}
	if d := mustDense(t, mustExec(t, e, `SELECT v FROM img WHERE x * 0`)); d.Valid(5, 5) {
		t.Fatal("x * 0 left a cell valid")
	}
	// An equality no whole coordinate meets holds at no cell.
	if f := mustExec(t, e, `SELECT 1 AS one FROM img WHERE x = 1.5`); f.Len() != 0 {
		t.Fatalf("x = 1.5 gives origin(%d,%d) %dx%d, want no cell", f.X0, f.Y0, f.W, f.H)
	}
	// A crop to no cell keeps the source's columns: projecting one, or
	// grouping over the source, gives an empty frame, not an error.
	for _, q := range []string{
		`SELECT v FROM img WHERE x > 100`,
		`SELECT v FROM img WHERE x = 1.5`,
		`SELECT [x], [y], AVG(v) AS a FROM img WHERE x > 100 GROUP BY img[x-1:x+2][y-1:y+2]`,
	} {
		if f := mustExec(t, e, q); f.Len() != 0 {
			t.Fatalf("%s gives origin(%d,%d) %dx%d, want no cell", q, f.X0, f.Y0, f.W, f.H)
		}
	}
}

func TestFromSliceSyntax(t *testing.T) {
	e := NewEngine()
	d := array.New(8, 8)
	d.Set(3, 3, 42)
	e.RegisterArray("img", d, "v")
	f := mustExec(t, e, `SELECT v FROM img[2:5][2:5]`)
	if f.W != 3 || f.H != 3 {
		t.Fatalf("slice = %dx%d", f.W, f.H)
	}
	dd, _ := f.Dense("v")
	if dd.Get(3, 3) != 42 {
		t.Fatalf("sliced value = %g", dd.Get(3, 3))
	}
}

func TestValuePredicateMasksCells(t *testing.T) {
	e := NewEngine()
	d := array.New(4, 1)
	for x := 0; x < 4; x++ {
		d.Set(x, 0, float64(x))
	}
	e.RegisterArray("a", d, "v")
	f := mustExec(t, e, `SELECT v FROM a WHERE v >= 2`)
	dd, _ := f.Dense("v")
	if dd.Valid(0, 0) || dd.Valid(1, 0) {
		t.Fatal("cells failing the predicate should be invalid")
	}
	if !dd.Valid(2, 0) || !dd.Valid(3, 0) {
		t.Fatal("cells passing the predicate should be valid")
	}
}

func TestArithmeticAndCase(t *testing.T) {
	e := NewEngine()
	d := array.New(3, 1)
	d.Set(0, 0, 1)
	d.Set(1, 0, 5)
	d.Set(2, 0, 9)
	e.RegisterArray("a", d, "v")
	f := mustExec(t, e, `
SELECT CASE WHEN v > 6 THEN 2 WHEN v > 3 THEN 1 ELSE 0 END AS class,
       v * 2 + 1 AS scaled
FROM a`)
	cls, _ := f.Dense("class")
	if cls.Get(0, 0) != 0 || cls.Get(1, 0) != 1 || cls.Get(2, 0) != 2 {
		t.Fatalf("case results: %g %g %g", cls.Get(0, 0), cls.Get(1, 0), cls.Get(2, 0))
	}
	sc, _ := f.Dense("scaled")
	if sc.Get(1, 0) != 11 {
		t.Fatalf("scaled = %g", sc.Get(1, 0))
	}
}

func TestDimensionJoin(t *testing.T) {
	e := NewEngine()
	a := array.New(4, 4)
	b := array.New(4, 4)
	a.Fill(10)
	b.Fill(3)
	e.RegisterArray("t039", a, "v")
	e.RegisterArray("t108", b, "v")
	f := mustExec(t, e, `
SELECT [T039.x], [T039.y], T039.v AS v039, T108.v AS v108
FROM t039 AS T039 JOIN t108 AS T108
ON T039.x = T108.x AND T039.y = T108.y`)
	if f.W != 4 || f.H != 4 {
		t.Fatalf("join dims = %dx%d", f.W, f.H)
	}
	d1, _ := f.Dense("v039")
	d2, _ := f.Dense("v108")
	if d1.Get(2, 2) != 10 || d2.Get(2, 2) != 3 {
		t.Fatalf("join values = %g / %g", d1.Get(2, 2), d2.Get(2, 2))
	}
}

func TestJoinRejectsNonDimCondition(t *testing.T) {
	e := NewEngine()
	e.RegisterArray("a", array.New(2, 2), "v")
	e.RegisterArray("b", array.New(2, 2), "v")
	if _, err := e.Exec(`SELECT a.v FROM a JOIN b ON a.v = b.v`); err == nil {
		t.Fatal("value join should be rejected")
	}
}

func TestStructuralGroupingAvg(t *testing.T) {
	e := NewEngine()
	d := array.New(5, 5)
	d.Set(2, 2, 9) // single spike
	e.RegisterArray("a", d, "v")
	f := mustExec(t, e, `
SELECT [x], [y], AVG(v) AS m
FROM a
GROUP BY a[x-1:x+2][y-1:y+2]`)
	m, _ := f.Dense("m")
	if got := m.Get(2, 2); math.Abs(got-1) > 1e-9 {
		t.Fatalf("window mean at spike = %g, want 1", got)
	}
	if got := m.Get(0, 0); got != 0 {
		t.Fatalf("corner mean = %g", got)
	}
	// Corner window is 2x2=4 cells, none hot.
	if got := m.Get(4, 4); got != 0 {
		t.Fatalf("far corner = %g", got)
	}
	// At (1,1) the 3x3 window includes the spike: 9/9 = 1.
	if got := m.Get(1, 1); math.Abs(got-1) > 1e-9 {
		t.Fatalf("window mean near spike = %g", got)
	}
}

func TestStructuralGroupingSumMinMaxCount(t *testing.T) {
	e := NewEngine()
	d := array.New(3, 3)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			d.Set(x, y, float64(y*3+x+1)) // 1..9
		}
	}
	e.RegisterArray("a", d, "v")
	f := mustExec(t, e, `
SELECT SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS n
FROM a GROUP BY a[x-1:x+2][y-1:y+2]`)
	s, _ := f.Dense("s")
	lo, _ := f.Dense("lo")
	hi, _ := f.Dense("hi")
	n, _ := f.Dense("n")
	if s.Get(1, 1) != 45 {
		t.Fatalf("centre sum = %g, want 45", s.Get(1, 1))
	}
	if lo.Get(1, 1) != 1 || hi.Get(1, 1) != 9 {
		t.Fatalf("centre min/max = %g/%g", lo.Get(1, 1), hi.Get(1, 1))
	}
	if n.Get(0, 0) != 4 || n.Get(1, 1) != 9 || n.Get(2, 0) != 4 {
		t.Fatalf("counts = %g %g %g", n.Get(0, 0), n.Get(1, 1), n.Get(2, 0))
	}
	if s.Get(0, 0) != 1+2+4+5 {
		t.Fatalf("corner sum = %g", s.Get(0, 0))
	}
}

func TestAggregateOutsideGroupByFails(t *testing.T) {
	e := NewEngine()
	e.RegisterArray("a", array.New(2, 2), "v")
	if _, err := e.Exec(`SELECT AVG(v) FROM a`); err == nil {
		t.Fatal("aggregate without structural GROUP BY should fail")
	}
}

func TestTableFunction(t *testing.T) {
	e := NewEngine()
	e.RegisterFunc("make_image", func(args []string) (*Frame, error) {
		d := array.New(2, 2)
		d.Fill(7)
		return FromDense(d, "v"), nil
	})
	f := mustExec(t, e, `SELECT v FROM make_image('x') AS img`)
	d, _ := f.Dense("v")
	if d.Get(0, 0) != 7 {
		t.Fatalf("table function value = %g", d.Get(0, 0))
	}
	if _, err := e.Exec(`SELECT v FROM no_such_fn('x') AS a`); err == nil {
		t.Fatal("unknown table function should fail")
	}
}

func TestInsertSelectIntoDeclaredArray(t *testing.T) {
	e := NewEngine()
	d := array.New(4, 4)
	d.Fill(2)
	e.RegisterArray("src", d, "v")
	mustExec(t, e, `CREATE ARRAY dst (x INTEGER DIMENSION, y INTEGER DIMENSION, v FLOAT)`)
	mustExec(t, e, `INSERT INTO dst SELECT v * 10 AS w FROM src`)
	f := mustExec(t, e, `SELECT v FROM dst`)
	dd, _ := f.Dense("v") // renamed to the declared column
	if dd.Get(1, 1) != 20 {
		t.Fatalf("stored value = %g", dd.Get(1, 1))
	}
}

// figure4Query is the paper's Figure 4 hotspot-classification query with
// its two listing typos fixed (stray ';' and the v018_mean alias).
const figure4Query = `
SELECT [x], [y],
CASE
 WHEN v039 > 310 AND v039 - v108 > 10 AND v039_std_dev > 4 AND
      v108_std_dev < 2
 THEN 2
 WHEN v039 > 310 AND v039 - v108 > 8 AND v039_std_dev > 2.5 AND
      v108_std_dev < 2
 THEN 1
 ELSE 0
END AS confidence
FROM (
 SELECT [x], [y], v039, v108,
  SQRT( v039_sqr_mean - v039_mean * v039_mean ) AS v039_std_dev,
  SQRT( v108_sqr_mean - v108_mean * v108_mean ) AS v108_std_dev
 FROM (
  SELECT [x], [y], v039, v108,
   AVG( v039 ) AS v039_mean, AVG( v039 * v039 ) AS v039_sqr_mean,
   AVG( v108 ) AS v108_mean, AVG( v108 * v108 ) AS v108_sqr_mean
  FROM (
   SELECT [T039.x], [T039.y], T039.v AS v039, T108.v AS v108
   FROM hrit_T039_image_array AS T039
   JOIN hrit_T108_image_array AS T108
   ON T039.x = T108.x AND T039.y = T108.y
  ) AS image_array
  GROUP BY image_array[x-1:x+2][y-1:y+2]
 ) AS tmp1
) AS tmp2`

func TestFigure4ClassificationQuery(t *testing.T) {
	e := NewEngine()
	// Background: uniform 290 K in both bands — no fire anywhere.
	t039 := array.New(16, 16)
	t108 := array.New(16, 16)
	t039.Fill(290)
	t108.Fill(288)
	// Inject a fire pixel at (8,8): hot in 3.9µm, moderate in 10.8µm.
	t039.Set(8, 8, 340)
	t108.Set(8, 8, 292)
	e.RegisterArray("hrit_T039_image_array", t039, "v")
	e.RegisterArray("hrit_T108_image_array", t108, "v")

	f := mustExec(t, e, figure4Query)
	conf, err := f.Dense("confidence")
	if err != nil {
		t.Fatal(err)
	}
	if got := conf.Get(8, 8); got != 2 {
		t.Fatalf("fire pixel confidence = %g, want 2", got)
	}
	// Background must be quiet.
	for _, p := range [][2]int{{0, 0}, {15, 15}, {3, 12}} {
		if got := conf.Get(p[0], p[1]); got != 0 {
			t.Fatalf("background pixel (%d,%d) confidence = %g", p[0], p[1], got)
		}
	}
	// Immediate neighbours share the high std-dev window but not the
	// temperature threshold, so they stay 0.
	if got := conf.Get(7, 8); got != 0 {
		t.Fatalf("neighbour confidence = %g", got)
	}
}

func TestFigure4PotentialFire(t *testing.T) {
	e := NewEngine()
	t039 := array.New(16, 16)
	t108 := array.New(16, 16)
	t039.Fill(303)
	t108.Fill(297)
	// A weaker anomaly that passes the confidence-1 thresholds but not
	// the confidence-2 ones. For a single spike of height d over a flat
	// background, the 3x3 std-dev is d·√8/9 ≈ 0.314·d, so:
	//   v039 = 311.5 (> 310), spike 8.5 → std 2.67 ∈ (2.5, 4]
	//   v108 = 302.5, spike 5.5 → std 1.73 < 2
	//   diff = 9.0 ∈ (8, 10]  → confidence 1, not 2.
	t039.Set(8, 8, 311.5)
	t108.Set(8, 8, 302.5)
	e.RegisterArray("hrit_T039_image_array", t039, "v")
	e.RegisterArray("hrit_T108_image_array", t108, "v")
	f := mustExec(t, e, figure4Query)
	conf, _ := f.Dense("confidence")
	if got := conf.Get(8, 8); got != 1 {
		t.Fatalf("potential-fire confidence = %g, want 1", got)
	}
}

func TestParserErrors(t *testing.T) {
	for _, src := range []string{
		`SELECT FROM a`,
		`SELECT v`,
		`SELECT v FROM`,
		`CREATE ARRAY (x INTEGER DIMENSION, y INTEGER DIMENSION, v FLOAT)`,
		`INSERT INTO`,
		`SELECT v FROM a GROUP BY a[x-1:z+2][y-1:y+2]`,
		`SELECT v FROM a WHERE`,
		`SELECT CASE END FROM a`,
		`SELECT v FROM a[1:2]`,
	} {
		if _, err := ParseStmt(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestLexerStringsAndComments(t *testing.T) {
	toks, err := lexAll(`SELECT 'it''s' -- comment
FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	var str string
	for _, tk := range toks {
		if tk.kind == tString {
			str = tk.text
		}
	}
	if str != "it's" {
		t.Fatalf("string literal = %q", str)
	}
}

func TestAmbiguousColumnDetection(t *testing.T) {
	e := NewEngine()
	e.RegisterArray("a", array.New(2, 2), "v")
	e.RegisterArray("b", array.New(2, 2), "v")
	if _, err := e.Exec(`SELECT v FROM a JOIN b ON a.x = b.x AND a.y = b.y`); err == nil {
		t.Fatal("ambiguous column should be rejected")
	}
	// Qualified access works.
	mustExec(t, e, `SELECT a.v AS av, b.v AS bv FROM a JOIN b ON a.x = b.x AND a.y = b.y`)
}

func TestDimRefInExpression(t *testing.T) {
	e := NewEngine()
	e.RegisterArray("a", array.New(3, 2), "v")
	f := mustExec(t, e, `SELECT x + y * 10 AS code FROM a`)
	d, _ := f.Dense("code")
	if d.Get(2, 1) != 12 {
		t.Fatalf("code = %g, want 12", d.Get(2, 1))
	}
}

func TestScalarFunctions(t *testing.T) {
	e := NewEngine()
	d := array.New(1, 1)
	d.Set(0, 0, -9)
	e.RegisterArray("a", d, "v")
	f := mustExec(t, e, `SELECT ABS(v) AS a, SQRT(ABS(v)) AS s, POWER(2, 3) AS p, FLOOR(1.7) AS fl FROM a`)
	get := func(c string) float64 {
		dd, err := f.Dense(c)
		if err != nil {
			t.Fatal(err)
		}
		return dd.Get(0, 0)
	}
	if get("a") != 9 || get("s") != 3 || get("p") != 8 || get("fl") != 1 {
		t.Fatalf("scalar results: %g %g %g %g", get("a"), get("s"), get("p"), get("fl"))
	}
}

// TestAdoptedArraysStayUntouched: a catalog array and a table function's
// array are adopted, not copied, so nothing a statement does may write
// them — neither Figure 4 over both, nor a WHERE residual masking cells,
// nor a caller mutating an array a result handed over, nor an INSERT
// into the registered name. Values and validity must stay bit-identical.
func TestAdoptedArraysStayUntouched(t *testing.T) {
	image := func(seed float64) *array.Dense {
		d := array.NewWithOrigin(3, 5, 12, 9)
		for i := range d.Values() {
			d.Values()[i] = 290 + math.Mod(float64(i)*seed, 37)
		}
		d.Invalidate(4, 6)
		d.Invalidate(10, 12)
		return d
	}
	registered, returned := image(7.3), image(11.9)
	want := []*array.Dense{registered.Clone(), returned.Clone()}
	e := NewEngine()
	e.RegisterArray("hrit_T039_image_array", registered, "v")
	e.RegisterFunc("load108", func([]string) (*Frame, error) { return FromDense(returned, "v"), nil })
	unchanged := func(when string) {
		t.Helper()
		for i, d := range []*array.Dense{registered, returned} {
			if !slices.EqualFunc(d.Values(), want[i].Values(), func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) ||
				!slices.Equal(d.Validity(), want[i].Validity()) {
				t.Fatalf("%s: adopted array %d changed", when, i)
			}
		}
	}

	mustExec(t, e, strings.Replace(figure4Query, "hrit_T108_image_array AS T108", "load108('x') AS T108", 1))
	unchanged("Figure 4")
	for _, src := range []string{"hrit_T039_image_array AS a", "load108('x') AS a"} {
		f := mustExec(t, e, `SELECT [x], [y], v * 2 AS w, v FROM `+src+` WHERE v > 300 AND x >= 4`)
		unchanged("a masking WHERE over " + src)
		for _, col := range []string{"v", "w"} {
			d, err := f.Dense(col)
			if err != nil {
				t.Fatal(err)
			}
			d.Invalidate(5, 7)
			d.Values()[0] = -1
			unchanged("mutating the handed-over " + col + " of " + src)
		}
	}
	twice := mustExec(t, e, `SELECT [x], [y], w AS p, w AS q FROM (SELECT [x], [y], v * 2 AS w FROM hrit_T039_image_array) AS s`)
	p, err := twice.Dense("p")
	if err != nil {
		t.Fatal(err)
	}
	q, err := twice.Dense("q")
	if err != nil {
		t.Fatal(err)
	}
	if p.Values()[0] = -1; q.Values()[0] == -1 {
		t.Fatal("two result columns of one computed column share their cells")
	}
	d, err := FromDense(registered, "v").Dense("")
	if err != nil {
		t.Fatal(err)
	}
	d.Values()[1] = -1
	d.Invalidate(3, 5)
	unchanged("mutating the Dense of an adopting frame")
	mustExec(t, e, `INSERT INTO hrit_T039_image_array VALUES (3, 5, -1)`)
	unchanged("an INSERT into the registered array")
	if got := mustExec(t, e, `SELECT v FROM hrit_T039_image_array`); mustDense(t, got).Get(3, 5) != -1 {
		t.Fatal("the INSERT did not reach the catalog")
	}
}

func mustDense(t *testing.T, f *Frame) *array.Dense {
	t.Helper()
	d, err := f.Dense("")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestParamsBindLikeLiterals: Figure 4 parsed once with its thresholds as
// parameters returns, bound to the paper's values, what the literal text
// returns, bit for bit; a parameter left unbound is an error.
func TestParamsBindLikeLiterals(t *testing.T) {
	e := NewEngine()
	t039, t108 := array.New(16, 16), array.New(16, 16)
	for i := range t039.Values() {
		t039.Values()[i] = 300 + math.Mod(float64(i)*7.7, 45)
		t108.Values()[i] = 285 + math.Mod(float64(i)*3.1, 12)
	}
	e.RegisterArray("hrit_T039_image_array", t039, "v")
	e.RegisterArray("hrit_T108_image_array", t108, "v")
	want := mustDense(t, mustExec(t, e, figure4Query))
	text := strings.NewReplacer("> 310", "> :t", "> 10 ", "> :fire ", "> 8 ", "> :pot ", "> 4 ", "> :sf ", "> 2.5 ", "> :sp ", "< 2", "< :max").Replace(figure4Query)
	stmt, err := ParseStmt(text)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]float64{"t": 310, "fire": 10, "pot": 8, "sf": 4, "sp": 2.5, "max": 2}
	for range 2 {
		f, err := e.ExecParams(stmt, params)
		if err != nil {
			t.Fatal(err)
		}
		got := mustDense(t, f)
		if !slices.Equal(got.Values(), want.Values()) || !slices.Equal(got.Validity(), want.Validity()) {
			t.Fatal("the bound parameters classify differently from the literals")
		}
	}
	delete(params, "pot")
	if _, err := e.ExecParams(stmt, params); err == nil || !strings.Contains(err.Error(), ":pot") {
		t.Fatalf("an unbound parameter ran: %v", err)
	}
}
