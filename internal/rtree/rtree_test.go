package rtree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func box(x, y, w, h float64) geom.Envelope {
	return geom.Envelope{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

// searchSlice collects the payloads of all items intersecting the window.
func searchSlice(t *Tree, window geom.Envelope) []any {
	var out []any
	t.Search(window, func(it Item) bool {
		out = append(out, it.Data)
		return true
	})
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatal("new tree not empty")
	}
	if tr.root != nil {
		t.Fatal("empty tree has a root")
	}
	got := searchSlice(tr, box(0, 0, 100, 100))
	if len(got) != 0 {
		t.Fatal("search on empty tree returned items")
	}
	if tr.Delete(box(0, 0, 1, 1), "x") {
		t.Fatal("delete on empty tree succeeded")
	}
}

func TestInsertAndSearch(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		x := float64(i % 10)
		y := float64(i / 10)
		tr.Insert(box(x, y, 0.5, 0.5), i)
	}
	if tr.Len() != 100 {
		t.Fatalf("len = %d", tr.Len())
	}
	// Window covering the 2x2 block at (0,0)..(2,2).
	got := searchSlice(tr, box(-0.1, -0.1, 1.7, 1.7))
	want := map[int]bool{0: true, 1: true, 10: true, 11: true}
	if len(got) != len(want) {
		t.Fatalf("got %d items: %v", len(got), got)
	}
	for _, g := range got {
		if !want[g.(int)] {
			t.Fatalf("unexpected item %v", g)
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := New()
	for i := 0; i < 50; i++ {
		tr.Insert(box(float64(i), 0, 0.5, 0.5), i)
	}
	count := 0
	tr.Search(box(-1, -1, 100, 100), func(Item) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d items", count)
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	boxes := make([]geom.Envelope, 60)
	for i := range boxes {
		boxes[i] = box(float64(i%8), float64(i/8), 0.9, 0.9)
		tr.Insert(boxes[i], i)
	}
	for i := 0; i < 30; i++ {
		if !tr.Delete(boxes[i], i) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 30 {
		t.Fatalf("len after deletes = %d", tr.Len())
	}
	// Remaining items must all be findable.
	for i := 30; i < 60; i++ {
		found := false
		tr.Search(boxes[i], func(it Item) bool {
			if it.Data == i {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("item %d lost after deletions", i)
		}
	}
	// Deleting a missing item fails cleanly.
	if tr.Delete(boxes[0], 0) {
		t.Fatal("second delete of same item succeeded")
	}
}

func TestDeleteAll(t *testing.T) {
	tr := New()
	for i := 0; i < 40; i++ {
		tr.Insert(box(float64(i), 0, 1, 1), i)
	}
	for i := 0; i < 40; i++ {
		if !tr.Delete(box(float64(i), 0, 1, 1), i) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("len = %d after deleting all", tr.Len())
	}
	if got := searchSlice(tr, box(-10, -10, 100, 100)); len(got) != 0 {
		t.Fatalf("emptied tree still returns %d items", len(got))
	}
}

func TestBulkLoadMatchesInsert(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	items := make([]Item, 1000)
	for i := range items {
		items[i] = Item{
			Box:  box(r.Float64()*100, r.Float64()*100, r.Float64(), r.Float64()),
			Data: i,
		}
	}
	bulk := BulkLoad(items)
	inc := New()
	for _, it := range items {
		inc.Insert(it.Box, it.Data)
	}
	if bulk.Len() != 1000 || inc.Len() != 1000 {
		t.Fatalf("lens = %d / %d", bulk.Len(), inc.Len())
	}
	for q := 0; q < 50; q++ {
		w := box(r.Float64()*90, r.Float64()*90, 10, 10)
		a := toInts(searchSlice(bulk, w))
		b := toInts(searchSlice(inc, w))
		sort.Ints(a)
		sort.Ints(b)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("window %v: bulk %v != incremental %v", w, a, b)
		}
	}
}

func toInts(xs []any) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = x.(int)
	}
	return out
}

func TestBulkLoadEmptyAndTiny(t *testing.T) {
	if tr := BulkLoad(nil); tr.Len() != 0 {
		t.Fatal("bulk load of nil should be empty")
	}
	tr := BulkLoad([]Item{{Box: box(1, 1, 1, 1), Data: "a"}})
	if tr.Len() != 1 {
		t.Fatal("bulk load of one item")
	}
	got := searchSlice(tr, box(0, 0, 3, 3))
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("got %v", got)
	}
}

func TestBoundsGrow(t *testing.T) {
	tr := New()
	tr.Insert(box(0, 0, 1, 1), 1)
	tr.Insert(box(50, 50, 1, 1), 2)
	b := tr.root.box
	if b.MinX != 0 || b.MaxX != 51 || b.MaxY != 51 {
		t.Fatalf("bounds = %+v", b)
	}
}

func TestHeightGrows(t *testing.T) {
	tr := New()
	for i := 0; i < 2000; i++ {
		tr.Insert(box(float64(i%50), float64(i/50), 0.5, 0.5), i)
	}
	h := 1
	for n := tr.root; !n.leaf; n = n.children[0] {
		h++
	}
	if h < 2 {
		t.Fatalf("height = %d for 2000 items", h)
	}
	// All items findable after many splits.
	got := searchSlice(tr, box(-1, -1, 100, 100))
	if len(got) != 2000 {
		t.Fatalf("full scan found %d items", len(got))
	}
}

func TestPropertyRandomInsertSearchDelete(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr := New()
	type rec struct {
		b geom.Envelope
		i int
	}
	var live []rec
	nextID := 0
	for step := 0; step < 3000; step++ {
		switch {
		case len(live) == 0 || r.Float64() < 0.6:
			b := box(r.Float64()*100, r.Float64()*100, r.Float64()*2, r.Float64()*2)
			tr.Insert(b, nextID)
			live = append(live, rec{b, nextID})
			nextID++
		default:
			k := r.Intn(len(live))
			if !tr.Delete(live[k].b, live[k].i) {
				t.Fatalf("step %d: delete of live item %d failed", step, live[k].i)
			}
			live = append(live[:k], live[k+1:]...)
		}
		if tr.Len() != len(live) {
			t.Fatalf("step %d: len %d != live %d", step, tr.Len(), len(live))
		}
	}
	// Exhaustive verification with random windows against brute force.
	for q := 0; q < 100; q++ {
		w := box(r.Float64()*95, r.Float64()*95, 5, 5)
		var want []int
		for _, rc := range live {
			if rc.b.Intersects(w) {
				want = append(want, rc.i)
			}
		}
		got := toInts(searchSlice(tr, w))
		sort.Ints(want)
		sort.Ints(got)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("window %v: want %v got %v", w, want, got)
		}
	}
}

func TestInsertAllMatchesInsert(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	mk := func(n int) []Item {
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				Box:  box(r.Float64()*100, r.Float64()*100, r.Float64(), r.Float64()),
				Data: r.Intn(1 << 30),
			}
		}
		return items
	}
	// Grow a tree through a mix of flush sizes: empty-tree bulk load,
	// rebuild-triggering batches, and small append-path batches.
	batch := New()
	inc := New()
	total := 0
	for _, n := range []int{40, 300, 3, 7, 500, 1} {
		items := mk(n)
		batch.InsertAll(items)
		for _, it := range items {
			inc.Insert(it.Box, it.Data)
		}
		total += n
		if batch.Len() != total || inc.Len() != total {
			t.Fatalf("after +%d: lens = %d / %d, want %d", n, batch.Len(), inc.Len(), total)
		}
	}
	for q := 0; q < 50; q++ {
		w := box(r.Float64()*90, r.Float64()*90, 10, 10)
		a := toInts(searchSlice(batch, w))
		b := toInts(searchSlice(inc, w))
		sort.Ints(a)
		sort.Ints(b)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("window %v: batch %v != incremental %v", w, a, b)
		}
	}
	// Deletion must keep working across rebuilt trees.
	probe := mk(1)[0]
	batch.InsertAll([]Item{probe})
	if !batch.Delete(probe.Box, probe.Data) {
		t.Fatal("delete after InsertAll failed")
	}
}

func TestInsertAllEmptyBatch(t *testing.T) {
	tr := New()
	tr.InsertAll(nil)
	if tr.Len() != 0 {
		t.Fatal("empty batch must be a no-op")
	}
	tr.Insert(box(1, 1, 1, 1), "a")
	tr.InsertAll(nil)
	if tr.Len() != 1 {
		t.Fatal("empty batch on non-empty tree must be a no-op")
	}
}
