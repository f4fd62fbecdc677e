package stsparql

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/rdf"
)

// TestRowSnapshotRebuildsTerms pins the replay contract of the compact
// cell layout: every term comes back field for field — kind, datatype
// and language included — an unbound column stays the zero Term, and
// the shape table holds one entry per distinct (Kind, Datatype, Lang).
func TestRowSnapshotRebuildsTerms(t *testing.T) {
	rows := []Row{
		{rdf.NewIRI("http://e/x"), rdf.NewGeometry("POINT (1 2)"), rdf.NewLangLiteral("Αθήνα", "el")},
		{rdf.NewIRI("http://e/y"), {}, rdf.NewLiteral("plain")},
		{{}, rdf.NewDateTime("2007-08-25T10:00:00"), rdf.NewLangLiteral("Athens", "en")},
		{rdf.NewBlank("n1"), rdf.NewGeometry("POINT (3 4)"), rdf.NewLiteral("")},
	}
	snap := NewRowSnapshot([]string{"a", "b", "c"})
	for _, row := range rows {
		snap.Append(row)
	}
	if got := ReadAll(snap.Cursor()).Rows; !reflect.DeepEqual(got, rows) {
		t.Errorf("replayed rows = %v, want %v", got, rows)
	}
	// IRI (the unbound cell is the zero IRI), blank node, geometry,
	// dateTime, plain literal and two language tags.
	if len(snap.shapes) != 7 {
		t.Errorf("%d shapes for 7 distinct (Kind, Datatype, Lang): %v", len(snap.shapes), snap.shapes)
	}
	if size := unsafe.Sizeof(snapCell{}); size != 24 {
		t.Errorf("a cell takes %d bytes, its doc comment says 24", size)
	}
	var values int64
	for _, c := range snap.cells {
		values += int64(len(c.value))
	}
	if floor := values + int64(len(snap.cells))*24; snap.Bytes() < floor {
		t.Errorf("Bytes = %d, below the %d the cells alone take", snap.Bytes(), floor)
	}
}
