package main

import (
	"encoding/binary"
	"fmt"
	"slices"

	semisort "repro"
)

// Outputs are checked against references built at set-up, without
// allocating, so that checking never shows in the allocation figures.
//
// A multiset of records is summarised by its size and the wrapping sum of
// a 64-bit mix of each (key, value) pair: the sum ignores order, and a
// dropped, duplicated or altered record changes it with probability
// 1 - 2^-64. An output with the input's multiset is semisorted exactly
// when its number of maximal equal-key runs equals the input's number of
// distinct keys: every key has at least one run, so the counts agree only
// when each key has exactly one.

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func pairHash(key, value uint64) uint64 {
	return mix(key ^ mix(value+0x9e3779b97f4a7c15))
}

// digest summarises a multiset of records.
type digest struct {
	n   int
	sum uint64
}

func digestOf(a []semisort.Record) digest {
	d := digest{n: len(a)}
	for _, r := range a {
		d.sum += pairHash(r.Key, r.Value)
	}
	return d
}

// sortRef is what a semisort of one input must produce.
type sortRef struct {
	in       digest
	distinct int
}

// reduceRef is what a per-key sum of one input must produce: one record
// per distinct key, Value the wrapping sum of the key's values.
type reduceRef struct {
	out digest
}

// references builds both references for a, from a sorted copy.
func references(a []semisort.Record) (sortRef, reduceRef) {
	c := slices.Clone(a)
	slices.SortFunc(c, func(x, y semisort.Record) int {
		switch {
		case x.Key < y.Key:
			return -1
		case x.Key > y.Key:
			return 1
		}
		return 0
	})
	sr := sortRef{in: digestOf(a)}
	var rr reduceRef
	for i := 0; i < len(c); {
		j, sum := i, uint64(0)
		for ; j < len(c) && c[j].Key == c[i].Key; j++ {
			sum += c[j].Value
		}
		sr.distinct++
		rr.out.n++
		rr.out.sum += pairHash(c[i].Key, sum)
		i = j
	}
	return sr, rr
}

// checkSort reports why out is not a semisort of the input ref describes.
func checkSort(out []semisort.Record, ref sortRef) error {
	if len(out) != ref.in.n {
		return fmt.Errorf("semisort output has %d records, input had %d", len(out), ref.in.n)
	}
	d := digest{n: len(out)}
	runs := 0
	for i, r := range out {
		d.sum += pairHash(r.Key, r.Value)
		if i == 0 || r.Key != out[i-1].Key {
			runs++
		}
	}
	if d != ref.in {
		return fmt.Errorf("semisort output is not a permutation of the input (fingerprint %x, want %x)", d.sum, ref.in.sum)
	}
	if runs != ref.distinct {
		return fmt.Errorf("semisort output has %d key runs for %d distinct keys: equal keys are not contiguous", runs, ref.distinct)
	}
	return nil
}

// checkReduce reports why out is not the per-key sum ref describes.
func checkReduce(out []semisort.Record, ref reduceRef) error {
	if len(out) != ref.out.n {
		return fmt.Errorf("reduce output has %d groups, want %d", len(out), ref.out.n)
	}
	if d := digestOf(out); d != ref.out {
		return fmt.Errorf("reduce output has wrong keys or sums (fingerprint %x, want %x)", d.sum, ref.out.sum)
	}
	return nil
}

// checkGroups reports why the groups a shuffle emitted — the records in
// recs, group g spanning recs[starts[g]:starts[g+1]] with key keys[g] —
// are not the input's groups.
func checkGroups(recs []semisort.Record, starts []int, keys []uint64, ref sortRef) error {
	if len(recs) != ref.in.n {
		return fmt.Errorf("shuffle emitted %d records, %d were added", len(recs), ref.in.n)
	}
	if len(starts) != ref.distinct {
		return fmt.Errorf("shuffle emitted %d groups for %d distinct keys: a key appears in more than one group", len(starts), ref.distinct)
	}
	for g, lo := range starts {
		hi := len(recs)
		if g+1 < len(starts) {
			hi = starts[g+1]
		}
		if hi <= lo {
			return fmt.Errorf("shuffle emitted an empty group for key %x", keys[g])
		}
		for _, r := range recs[lo:hi] {
			if r.Key != keys[g] {
				return fmt.Errorf("shuffle group for key %x holds key %x", keys[g], r.Key)
			}
		}
	}
	if d := digestOf(recs); d != ref.in {
		return fmt.Errorf("shuffle output is not a permutation of the input (fingerprint %x, want %x)", d.sum, ref.in.sum)
	}
	return nil
}

// encode appends the service wire form of a (16 bytes per record, key
// then value, little-endian).
func encode(dst []byte, a []semisort.Record) []byte {
	for _, r := range a {
		dst = binary.LittleEndian.AppendUint64(dst, r.Key)
		dst = binary.LittleEndian.AppendUint64(dst, r.Value)
	}
	return dst
}

// decode decodes b into dst[:0], growing it only when too small.
func decode(dst []semisort.Record, b []byte) ([]semisort.Record, error) {
	if len(b)%16 != 0 {
		return dst, fmt.Errorf("response of %d bytes is not whole records", len(b))
	}
	dst = dst[:0]
	for off := 0; off < len(b); off += 16 {
		dst = append(dst, semisort.Record{
			Key:   binary.LittleEndian.Uint64(b[off:]),
			Value: binary.LittleEndian.Uint64(b[off+8:]),
		})
	}
	return dst, nil
}
