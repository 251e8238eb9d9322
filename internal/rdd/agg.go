package rdd

// Typed key aggregation. The keyed operators (reduceByKey, groupByKey,
// join, coGroup and the combineByKey family) all funnel through a
// first-seen-order key index. Hashing interface-boxed keys through a
// map[Row]int is the dominant per-row cost of that path, so the index
// specializes the overwhelmingly common key types — int, int64 and
// string — into monomorphic maps, detected from the first key of each
// batch. A batch whose keys turn out to be mixed, or of any other
// comparable type, degrades once to the generic map[Row]int and keeps
// going; the assigned slots (and therefore first-seen order, and
// therefore the emitted rows) are identical on every path, which is what
// keeps recomputation after a revocation byte-identical to the original
// run (see DESIGN.md "Data plane").

// aggHintCap bounds how many key slots are preallocated from a row-count
// hint: below it, sizing is exact; above it, maps and slices grow
// normally and the preallocation just removes the first growth steps.
// This keeps heavily skewed batches (many rows, few keys) from paying
// for huge empty tables.
const aggHintCap = 4096

// aggHint clamps an input row count to a preallocation size.
func aggHint(rows int) int {
	if rows > aggHintCap {
		return aggHintCap
	}
	return rows
}

// keyIndex assigns dense slot numbers to keys in first-seen order. Slots
// are handed out contiguously from 0, so callers index plain slices with
// them. The zero value is ready to use; set capHint first for sized maps.
type keyIndex struct {
	capHint int
	n       int // slots assigned so far

	// Exactly one of these is non-nil once a key has been seen.
	ints    map[int]int
	i64s    map[int64]int
	strs    map[string]int
	generic map[Row]int
}

// slot returns the dense slot of k, assigning the next free slot when the
// key is new (added reports which). A key whose type does not match the
// batch's detected type degrades the index to the generic map; assigned
// slots are preserved.
func (ix *keyIndex) slot(k Row) (i int, added bool) {
	if ix.generic != nil {
		return ix.genericSlot(k)
	}
	switch key := k.(type) {
	case int:
		if ix.ints == nil {
			if ix.n > 0 {
				ix.degrade()
				return ix.genericSlot(k)
			}
			ix.ints = make(map[int]int, ix.capHint)
		}
		if i, ok := ix.ints[key]; ok {
			return i, false
		}
		ix.ints[key] = ix.n
	case int64:
		if ix.i64s == nil {
			if ix.n > 0 {
				ix.degrade()
				return ix.genericSlot(k)
			}
			ix.i64s = make(map[int64]int, ix.capHint)
		}
		if i, ok := ix.i64s[key]; ok {
			return i, false
		}
		ix.i64s[key] = ix.n
	case string:
		if ix.strs == nil {
			if ix.n > 0 {
				ix.degrade()
				return ix.genericSlot(k)
			}
			ix.strs = make(map[string]int, ix.capHint)
		}
		if i, ok := ix.strs[key]; ok {
			return i, false
		}
		ix.strs[key] = ix.n
	default:
		ix.degrade()
		return ix.genericSlot(k)
	}
	ix.n++
	return ix.n - 1, true
}

// genericSlot is the fallback slot assignment through map[Row]int,
// allocating the map on first use.
func (ix *keyIndex) genericSlot(k Row) (int, bool) {
	if ix.generic == nil {
		ix.generic = make(map[Row]int, ix.capHint)
	}
	if i, ok := ix.generic[k]; ok {
		return i, false
	}
	ix.generic[k] = ix.n
	ix.n++
	return ix.n - 1, true
}

// lookup returns the slot of k without assigning one.
func (ix *keyIndex) lookup(k Row) (int, bool) {
	if ix.generic != nil {
		i, ok := ix.generic[k]
		return i, ok
	}
	switch key := k.(type) {
	case int:
		if ix.ints != nil {
			i, ok := ix.ints[key]
			return i, ok
		}
	case int64:
		if ix.i64s != nil {
			i, ok := ix.i64s[key]
			return i, ok
		}
	case string:
		if ix.strs != nil {
			i, ok := ix.strs[key]
			return i, ok
		}
	}
	return 0, false
}

// degrade migrates whatever typed map is in use into the generic
// map[Row]int. Slot numbers carry over unchanged, so the order/values
// slices built on top of the index are untouched.
func (ix *keyIndex) degrade() {
	g := make(map[Row]int, ix.n+ix.capHint)
	for k, i := range ix.ints {
		g[k] = i
	}
	for k, i := range ix.i64s {
		g[k] = i
	}
	for k, i := range ix.strs {
		g[k] = i
	}
	ix.ints, ix.i64s, ix.strs = nil, nil, nil
	ix.generic = g
}

// aggregateRows folds KV rows into per-key accumulators in first-seen
// key order: create turns a key's first value into its accumulator (nil
// for identity), merge folds every later value in. It is the shared body
// of reduceRows and combineRows. The batch's key type is detected from
// the first row and the whole fold runs through a monomorphic map for
// int, int64 and string keys; any other type — or a mixed batch — runs
// on (or migrates to) the generic keyIndex.
//
//lint:egress row-plane fallback; the generic path boxes by design
func aggregateRows(rows []Row, create func(v Row) Row, merge func(acc, v Row) Row) []Row {
	hint := aggHint(len(rows))
	order := make([]Row, 0, hint)
	acc := make([]Row, 0, hint)
	if len(rows) > 0 {
		switch rows[0].(KV).K.(type) {
		case int:
			order, acc = aggregateTyped[int](rows, create, merge, hint, order, acc)
		case int64:
			order, acc = aggregateTyped[int64](rows, create, merge, hint, order, acc)
		case string:
			order, acc = aggregateTyped[string](rows, create, merge, hint, order, acc)
		default:
			ix := keyIndex{capHint: hint}
			order, acc = aggregateSlots(rows, create, merge, &ix, order, acc)
		}
	}
	out := make([]Row, len(order))
	for i, k := range order {
		out[i] = KV{K: k, V: acc[i]}
	}
	return out
}

// aggregateTyped is the monomorphic fold: one map[K]int slot index, no
// interface hashing per row. A key of a foreign type migrates the
// accumulated index into the generic map and finishes the batch there,
// preserving every assigned slot (and therefore the output order).
func aggregateTyped[K comparable](rows []Row, create func(v Row) Row, merge func(acc, v Row) Row, hint int, order, acc []Row) ([]Row, []Row) {
	m := make(map[K]int, hint)
	for i, r := range rows {
		kv := r.(KV)
		k, ok := kv.K.(K)
		if !ok {
			// Map-order audit (flintlint maporder): a map-to-map slot
			// copy — each key keeps its already-assigned slot, so the
			// iteration order of the migration cannot change the
			// first-seen output order.
			g := make(map[Row]int, len(m)+hint)
			for key, s := range m {
				g[key] = s
			}
			ix := keyIndex{capHint: hint, n: len(order), generic: g}
			return aggregateSlots(rows[i:], create, merge, &ix, order, acc)
		}
		if s, seen := m[k]; seen {
			acc[s] = merge(acc[s], kv.V)
		} else {
			m[k] = len(order)
			order = append(order, kv.K)
			v := kv.V
			if create != nil {
				v = create(v)
			}
			acc = append(acc, v)
		}
	}
	return order, acc
}

// aggregateSlots is the keyIndex-driven fold used for non-specialized
// key types and for finishing mixed batches after a migration.
func aggregateSlots(rows []Row, create func(v Row) Row, merge func(acc, v Row) Row, ix *keyIndex, order, acc []Row) ([]Row, []Row) {
	for _, r := range rows {
		kv := r.(KV)
		if s, added := ix.slot(kv.K); added {
			order = append(order, kv.K)
			v := kv.V
			if create != nil {
				v = create(v)
			}
			acc = append(acc, v)
		} else {
			acc[s] = merge(acc[s], kv.V)
		}
	}
	return order, acc
}

// keyAgg accumulates values per key preserving first-seen key order.
type keyAgg struct {
	ix    keyIndex
	order []Row
	vals  [][]Row
}

// newKeyAgg returns an aggregator preallocated for up to capHint keys.
func newKeyAgg(capHint int) *keyAgg {
	return &keyAgg{
		ix:    keyIndex{capHint: capHint},
		order: make([]Row, 0, capHint),
		vals:  make([][]Row, 0, capHint),
	}
}

func (a *keyAgg) add(k, v Row) {
	i, added := a.ix.slot(k)
	if added {
		a.order = append(a.order, k)
		a.vals = append(a.vals, nil)
	}
	a.vals[i] = append(a.vals[i], v)
}

// groupKV aggregates KV rows into a keyAgg in two passes: assign slots
// and count values per key, then fill exact-size per-key value slices
// carved from one flat allocation. Identical output to add-ing every
// row, without the per-key append growth. The value slices share the
// flat backing array with capacities pinned to their own segments, so
// consumers appending to an emitted group copy instead of clobbering a
// neighbour.
func groupKV(rows []Row) *keyAgg {
	a := newKeyAgg(aggHint(len(rows)))
	if len(rows) == 0 {
		return a
	}
	slots := make([]int32, len(rows))
	counts := make([]int, 0, aggHint(len(rows)))
	for i, r := range rows {
		kv := r.(KV)
		s, added := a.ix.slot(kv.K)
		if added {
			a.order = append(a.order, kv.K)
			counts = append(counts, 0)
		}
		slots[i] = int32(s)
		counts[s]++
	}
	flat := make([]Row, len(rows))
	a.vals = make([][]Row, len(a.order))
	off := 0
	for s, c := range counts {
		a.vals[s] = flat[off : off : off+c]
		off += c
	}
	for i, r := range rows {
		s := slots[i]
		a.vals[s] = append(a.vals[s], r.(KV).V)
	}
	return a
}
