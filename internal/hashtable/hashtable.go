// Package hashtable implements a phase-concurrent open-addressing hash
// table for 64-bit keys, in the style of Shun and Blelloch's
// phase-concurrent hash tables (SPAA 2014), which the paper's
// implementation takes from PBBS.
//
// "Phase-concurrent" means operations of the same kind may run concurrently
// (many inserts in one phase, many lookups in another) but phases must be
// separated by a barrier — the usage pattern of the paper's heavy-key
// table T, fully built before the scatter phase performs lookups. (The
// semisort core indexes its heavy keys in a dense heavy directory
// instead, internal/core buckets.go; this table names keys for the
// rank-and-radix baseline, internal/rrsort.) Inserts claim slots with a
// single CAS on the key word; lookups are plain loads, so they are
// wait-free.
//
// The table has a fixed capacity chosen at construction; it never grows.
// One key value (Empty = ^uint64(0)) is reserved as the empty-slot marker.
// Callers whose keys may legitimately take that value must remap it first
// (rrsort does).
package hashtable

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/hash"
)

// Empty is the reserved key marking a vacant slot.
const Empty = ^uint64(0)

// Table is a fixed-capacity linear-probing hash table mapping uint64 keys
// to uint64 values.
type Table struct {
	keys []uint64
	vals []uint64
	mask uint64
	n    atomic.Int64 // number of occupied slots
}

// New returns a table able to hold at least capacity entries with load
// factor at most 1/2. Capacity is rounded up to a power of two.
func New(capacity int) *Table {
	if capacity < 1 {
		capacity = 1
	}
	size := 1 << uint(bits.Len(uint(2*capacity-1))) // pow2 >= 2*capacity
	if size < 4 {
		size = 4
	}
	t := &Table{
		keys: make([]uint64, size),
		vals: make([]uint64, size),
		mask: uint64(size - 1),
	}
	for i := range t.keys {
		t.keys[i] = Empty
	}
	return t
}

// Size returns the number of entries currently stored.
func (t *Table) Size() int { return int(t.n.Load()) }

// Capacity returns the number of slots (twice the construction capacity,
// rounded up).
func (t *Table) Capacity() int { return len(t.keys) }

// slot returns the initial probe position for key k. Keys reaching this
// table are already well-mixed hash values, but we fold the high bits in so
// tables remain robust even for structured keys.
func (t *Table) slot(k uint64) uint64 {
	return hash.Fmix64(k) & t.mask
}

// Insert adds (k, v) to the table if k is absent and reports whether this
// call inserted it. If k is already present (or being inserted by a racing
// call that claimed the slot first) Insert returns false and leaves the
// existing value in place. k must not equal Empty.
//
// Insert is safe to call concurrently with other Inserts. It must not run
// concurrently with Lookup (phase-concurrency contract).
func (t *Table) Insert(k, v uint64) bool {
	if k == Empty {
		panic("hashtable: Insert of reserved Empty key")
	}
	i := t.slot(k)
	for {
		cur := atomic.LoadUint64(&t.keys[i])
		if cur == k {
			return false
		}
		if cur == Empty {
			if atomic.CompareAndSwapUint64(&t.keys[i], Empty, k) {
				// Slot claimed: publish the value. Readers only run
				// after the insert phase's barrier, so a plain store
				// suffices for them; use atomic for race-detector
				// cleanliness against racing Inserts that load vals.
				atomic.StoreUint64(&t.vals[i], v)
				t.n.Add(1)
				return true
			}
			// Lost the race; re-examine this slot (the winner may have
			// inserted our key).
			continue
		}
		i = (i + 1) & t.mask
	}
}

// InsertOrGetSlot inserts k if absent and returns the slot index holding k.
// The boolean reports whether this call performed the insertion. Used by
// the naming problem, where the slot index itself serves as the label.
func (t *Table) InsertOrGetSlot(k uint64) (int, bool) {
	if k == Empty {
		panic("hashtable: InsertOrGetSlot of reserved Empty key")
	}
	i := t.slot(k)
	for {
		cur := atomic.LoadUint64(&t.keys[i])
		if cur == k {
			return int(i), false
		}
		if cur == Empty {
			if atomic.CompareAndSwapUint64(&t.keys[i], Empty, k) {
				t.n.Add(1)
				return int(i), true
			}
			continue
		}
		i = (i + 1) & t.mask
	}
}

// SetValue stores v for a key already present at slot index i (as returned
// by InsertOrGetSlot). Concurrent callers must agree on the value or
// synchronize externally.
func (t *Table) SetValue(i int, v uint64) { atomic.StoreUint64(&t.vals[i], v) }

// Lookup returns the value stored for k and whether k is present. It is
// wait-free and safe to call concurrently with other Lookups. It must not
// run concurrently with Insert.
func (t *Table) Lookup(k uint64) (uint64, bool) {
	if k == Empty {
		// The reserved key can never be stored, and probing for it would
		// falsely match the first vacant slot.
		return 0, false
	}
	i := t.slot(k)
	for {
		cur := t.keys[i]
		if cur == k {
			return t.vals[i], true
		}
		if cur == Empty {
			return 0, false
		}
		i = (i + 1) & t.mask
	}
}

// Contains reports whether k is present. Same phase rules as Lookup.
func (t *Table) Contains(k uint64) bool {
	_, ok := t.Lookup(k)
	return ok
}

// ForEach calls fn for every (key, value) pair in unspecified order. Must
// not run concurrently with Insert.
func (t *Table) ForEach(fn func(k, v uint64)) {
	for i, k := range t.keys {
		if k != Empty {
			fn(k, t.vals[i])
		}
	}
}

// Reset empties the table for reuse without reallocating.
func (t *Table) Reset() {
	for i := range t.keys {
		t.keys[i] = Empty
		t.vals[i] = 0
	}
	t.n.Store(0)
}
