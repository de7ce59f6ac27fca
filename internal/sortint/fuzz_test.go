package sortint

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/rec"
)

// dtFuzzRecords builds the FuzzDovetailSemisort input from arbitrary
// bytes. Two bytes give the record count: their low 14 bits, moved past
// the parallel cutoff when the top two bits are set, so a quarter of the
// inputs take the parallel passes at Procs 2 and the rest stay small
// enough to fuzz quickly. The other bytes are 16-bit words w repeated
// cyclically, so short inputs still carry duplicates. Record i's base value is
// w[i%m] + (i/m)*step, where step (from the shape byte's high nibble)
// spreads later cycles over new keys. The shape byte's low bits pick the
// key: raw (hashed to 64 bits), shifted into the high bits, or a shared
// 48-bit prefix over masked low bits.
func dtFuzzRecords(shape byte, size uint16, data []byte) []rec.Record {
	m := len(data) / 2
	if m == 0 {
		return nil
	}
	step := uint64(shape >> 4)
	n := int(size & (1<<14 - 1))
	if size>>14 == 3 {
		n += seqCutoff
	}
	a := make([]rec.Record, n)
	for i := range a {
		v := uint64(binary.LittleEndian.Uint16(data[2*(i%m):])) + uint64(i/m)*step
		var k uint64
		switch shape & 3 {
		case 0:
			k = dtMix(v)
		case 1:
			k = v << (40 + shape>>2&3*4)
		case 2:
			k = 0x5eed_0123_4567<<16 | v&(1<<(4+shape>>2&3*4)-1)
		default:
			k = v
		}
		a[i] = rec.Record{Key: k, Value: uint64(i)}
	}
	return a
}

// FuzzDovetailSemisort checks the dovetail recursion against its
// contract on arbitrary inputs: the output is a permutation, groups every
// key contiguously in input order, is identical at Procs 1 and 2, and —
// when no node extracted a heavy key — equals the stable sort by key.
// Run with `go test -fuzz=FuzzDovetailSemisort -run=^$ ./internal/sortint`;
// the seed corpus always runs under plain `go test`.
func FuzzDovetailSemisort(f *testing.F) {
	words := func(n int, seed uint64) []byte {
		b := make([]byte, 2*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint16(b[2*i:], uint16(dtMix(seed+uint64(i))))
		}
		return b
	}
	f.Add(byte(0x10), uint16(5000), words(64, 1))
	f.Add(byte(0x00), uint16(9000), words(3, 2))
	f.Add(byte(0xf1), uint16(0xc000|1000), words(200, 3))
	f.Add(byte(0x12), uint16(2048), words(500, 4))
	f.Add(byte(0x0e), uint16(8193), words(7, 5))
	f.Add(byte(0x83), uint16(600), words(40, 6))
	f.Fuzz(func(t *testing.T, shape byte, size uint16, data []byte) {
		in := dtFuzzRecords(shape, size, data)
		a1 := slices.Clone(in)
		var st DovetailStats
		if err := DovetailSemisort(1, a1, &st); err != nil {
			t.Fatal(err)
		}
		dtCheckGrouped(t, "procs=1", a1, in)
		a2 := slices.Clone(in)
		if err := DovetailSemisort(2, a2, nil); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a1, a2) {
			t.Fatal("procs=2 output differs from procs=1")
		}
		if st.DovetailNodes == 0 {
			want := slices.Clone(in)
			slices.SortStableFunc(want, func(x, y rec.Record) int { return cmp.Compare(x.Key, y.Key) })
			if !slices.Equal(a1, want) {
				t.Fatal("no heavy key extracted, yet output is not the stable sort by key")
			}
		}
	})
}

// u64FuzzKeys builds the FuzzSortUint64 input from arbitrary bytes. Two
// bytes give the key count: their low 14 bits, which straddle smallCutoff
// and u64WideMax, moved up by 2^16 when the top two bits are set, so a
// quarter of the inputs exceed the largest sample of a 2^20-record input.
// The other bytes are 16-bit words w repeated cyclically; key i derives
// from v = w[i%m] + i/m. The shape byte picks the key: hashed v
// (near-unique), hashed v modulo a small count (duplicate-heavy), v under
// a shared 48-bit prefix (sequential keys that agree on their high bits),
// one key for every record, or v mapped onto extremes around 0, 1<<63 and
// MaxUint64.
func u64FuzzKeys(shape byte, size uint16, data []byte) []uint64 {
	m := len(data) / 2
	if m == 0 {
		return nil
	}
	n := int(size & (1<<14 - 1))
	if size>>14 == 3 {
		n += 1 << 16
	}
	extremes := [...]uint64{0, 1, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	a := make([]uint64, n)
	for i := range a {
		v := uint64(binary.LittleEndian.Uint16(data[2*(i%m):])) + uint64(i/m)
		switch shape % 5 {
		case 0:
			a[i] = dtMix(v)
		case 1:
			a[i] = dtMix(v % (uint64(shape>>3) + 1))
		case 2:
			a[i] = 0x5eed_0123_4567<<16 | v&0xffff
		case 3:
			a[i] = dtMix(uint64(shape))
		default:
			a[i] = extremes[v%uint64(len(extremes))]
		}
	}
	return a
}

// FuzzSortUint64 checks SortUint64With against slices.Sort at Procs 1
// and 2. Run with `go test -fuzz=FuzzSortUint64 -run=^$ ./internal/sortint`;
// the seed corpus always runs under plain `go test`.
func FuzzSortUint64(f *testing.F) {
	words := func(n int, seed uint64) []byte {
		b := make([]byte, 2*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint16(b[2*i:], uint16(dtMix(seed+uint64(i))))
		}
		return b
	}
	f.Add(byte(0), uint16(5000), words(64, 1))
	f.Add(byte(0x29), uint16(12000), words(300, 2))
	f.Add(byte(2), uint16(9000), words(700, 3))
	f.Add(byte(3), uint16(40), words(1, 4))
	f.Add(byte(4), uint16(33), words(16, 5))
	f.Add(byte(0), uint16(0xc000|9000), words(500, 6))
	f.Add(byte(0x51), uint16(0xc000|12000), words(50, 7))
	f.Fuzz(func(t *testing.T, shape byte, size uint16, data []byte) {
		in := u64FuzzKeys(shape, size, data)
		want := slices.Clone(in)
		slices.Sort(want)
		scratch := make([]uint64, len(in))
		for _, procs := range []int{1, 2} {
			got := slices.Clone(in)
			SortUint64With(procs, got, scratch)
			if !slices.Equal(got, want) {
				t.Fatalf("procs=%d n=%d: output differs from slices.Sort", procs, len(in))
			}
		}
	})
}
