package hot

import "fmt"

type table struct {
	vals []float64
	n    int
}

func sink(v any) {}

// --- positives: each construct gc's escape analysis heap-allocates ---

// lookupMake does a hot-path lookup.
//
//mpc:noalloc
func lookupMake(t *table) []float64 {
	buf := make([]float64, t.n) // want `on hot.lookupMake: make\(\[\]float64, t.n\) escapes to heap`
	return buf
}

//mpc:noalloc
func lookupNew(t *table) *table {
	return new(table) // want `on hot.lookupNew: new\(table\) escapes to heap`
}

//mpc:noalloc
func lookupSliceLit() []int {
	return []int{1, 2, 3} // want `on hot.lookupSliceLit: \[\]int\{...\} escapes to heap`
}

//mpc:noalloc
func lookupMapLit() map[string]int {
	return map[string]int{"a": 1} // want `on hot.lookupMapLit: map\[string\]int\{...\} escapes to heap`
}

//mpc:noalloc
func lookupAddrLit() *table {
	return &table{n: 1} // want `on hot.lookupAddrLit: &table\{...\} escapes to heap`
}

//mpc:noalloc
func lookupConcat(a, b string) string {
	return a + b // want `on hot.lookupConcat: a \+ b escapes to heap`
}

//mpc:noalloc
func lookupConvert(s string) []byte {
	return []byte(s) // want `on hot.lookupConvert: \(\[\]byte\)\(s\) escapes to heap`
}

//mpc:noalloc
func lookupFmt(v float64) string {
	return fmt.Sprintf("%v", v) // want `on hot.lookupFmt: v escapes to heap`
}

// --- constructs -m does not report, so they carry no want ---

// lookupAppend grows t.vals whenever len == cap, but -m reports append
// growth nowhere; the AllocsPerRun witnesses on the real annotated roots
// catch it at run time.
//
//mpc:noalloc
func lookupAppend(t *table, v float64) {
	t.vals = append(t.vals, v)
}

// lookupClosure allocates nothing: the closure is called in place and
// inlined, so its environment stays on the stack.
//
//mpc:noalloc
func lookupClosure(t *table) float64 {
	f := func() float64 { return t.vals[0] }
	return f()
}

// lookupBox allocates nothing: sink is inlined, so v is never boxed.
//
//mpc:noalloc
func lookupBox(v float64) {
	sink(v)
}

// --- negatives ---

// coldPath is un-annotated: growth and formatting are fine here, and the
// t.n escape the compiler reports is outside every annotated range.
func coldPath(t *table) string {
	t.vals = append(t.vals, 0)
	return fmt.Sprintf("%d", t.n)
}

// lookupClean is the shape the contract wants: indexing, arithmetic,
// pointer passing.
//
//mpc:noalloc
func lookupClean(t *table, i int) float64 {
	if i < 0 || i >= len(t.vals) {
		return 0
	}
	sink(t) // pointer into interface: stored directly, no box
	return t.vals[i] * float64(t.n)
}
