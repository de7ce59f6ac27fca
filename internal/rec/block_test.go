package rec

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func blockRecords(n int, distinct uint64, seed int64) []Record {
	r := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: uint64(r.Int63n(int64(distinct))), Value: uint64(i)}
	}
	return recs
}

func TestBlockRoundTrip(t *testing.T) {
	var enc BlockEncoder
	var dec BlockDecoder
	for _, compress := range []bool{false, true} {
		for _, n := range []int{0, 1, 7, 4096} {
			recs := blockRecords(n, 37, int64(n)+1)
			buf, err := enc.AppendBlock(nil, recs, compress)
			if err != nil {
				t.Fatalf("compress=%v n=%d: %v", compress, n, err)
			}
			got, consumed, err := dec.DecodeBlock(nil, buf)
			if err != nil {
				t.Fatalf("compress=%v n=%d decode: %v", compress, n, err)
			}
			if consumed != len(buf) {
				t.Errorf("compress=%v n=%d: consumed %d of %d bytes", compress, n, consumed, len(buf))
			}
			if len(got) != n {
				t.Fatalf("compress=%v n=%d: decoded %d records", compress, n, len(got))
			}
			for i := range got {
				if got[i] != recs[i] {
					t.Fatalf("compress=%v n=%d: record %d = %+v, want %+v", compress, n, i, got[i], recs[i])
				}
			}
		}
	}
}

func TestBlockConcatenation(t *testing.T) {
	// A spill file is a concatenation of blocks; decoding walks them in
	// order and each block stands alone.
	var enc BlockEncoder
	var dec BlockDecoder
	var buf []byte
	var want []Record
	for b := 0; b < 5; b++ {
		recs := blockRecords(100+b, 11, int64(b))
		want = append(want, recs...)
		var err error
		if buf, err = enc.AppendBlock(buf, recs, b%2 == 1); err != nil {
			t.Fatal(err)
		}
	}
	var got []Record
	for off := 0; off < len(buf); {
		var n int
		var err error
		if got, n, err = dec.DecodeBlock(got, buf[off:]); err != nil {
			t.Fatalf("at offset %d: %v", off, err)
		}
		off += n
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestBlockCompressionShrinksDuplicates(t *testing.T) {
	// Heavy duplication compresses; the raw fallback keeps incompressible
	// blocks from inflating past the header.
	var enc BlockEncoder
	dup := make([]Record, 4096)
	for i := range dup {
		dup[i] = Record{Key: 42, Value: 7}
	}
	compressed, err := enc.AppendBlock(nil, dup, true)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := enc.AppendBlock(nil, dup, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(compressed) >= len(raw)/4 {
		t.Errorf("duplicate block: compressed %d bytes vs raw %d, want ≥4× shrink", len(compressed), len(raw))
	}
	// Incompressible: random keys and values.
	rnd := blockRecords(4096, 1<<62, 99)
	for i := range rnd {
		rnd[i].Value = rnd[i].Key * 0x9e3779b97f4a7c15
	}
	stored, err := enc.AppendBlock(nil, rnd, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) > len(rnd)*RecordSize+BlockHeaderSize {
		t.Errorf("incompressible block inflated: %d bytes for %d raw", len(stored), len(rnd)*RecordSize)
	}
}

func TestBlockCorruptionDetected(t *testing.T) {
	var enc BlockEncoder
	var dec BlockDecoder
	recs := blockRecords(1000, 17, 3)
	buf, err := enc.AppendBlock(nil, recs, false)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(b []byte)
		substr string
	}{
		{"bad magic", func(b []byte) { b[0] = 0x00 }, "magic"},
		{"flipped payload bit", func(b []byte) { b[BlockHeaderSize+500] ^= 0x10 }, "checksum"},
		{"reserved set", func(b []byte) { b[14] = 1 }, "reserved"},
		{"huge count", func(b []byte) { b[2], b[3], b[4], b[5] = 0xff, 0xff, 0xff, 0x7f }, "limit"},
	}
	for _, tc := range cases {
		cp := append([]byte(nil), buf...)
		tc.mutate(cp)
		if _, _, err := dec.DecodeBlock(nil, cp); err == nil || !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.substr)
		}
	}

	// Truncation: header cut and payload cut.
	if _, _, err := dec.DecodeBlock(nil, buf[:BlockHeaderSize-3]); err == nil {
		t.Error("truncated header went undetected")
	}
	if _, _, err := dec.DecodeBlock(nil, buf[:len(buf)-10]); err == nil {
		t.Error("truncated payload went undetected")
	}
}

func TestBlockDeterministic(t *testing.T) {
	// Spill files must be byte-identical across runs for the resume
	// byte-identity contract; the encoder (compressed or not) is
	// deterministic in its input.
	recs := blockRecords(2000, 23, 5)
	for _, compress := range []bool{false, true} {
		var e1, e2 BlockEncoder
		b1, err1 := e1.AppendBlock(nil, recs, compress)
		b2, err2 := e2.AppendBlock(nil, recs, compress)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if string(b1) != string(b2) {
			t.Errorf("compress=%v: two encodings of the same records differ", compress)
		}
	}
}

func TestRunsErrStopsAtError(t *testing.T) {
	a := []Record{{Key: 1}, {Key: 1}, {Key: 2}, {Key: 3}, {Key: 3}, {Key: 4}}
	boom := errors.New("boom")
	var calls int
	err := RunsErr(a, func(start, end int) error {
		calls++
		if a[start].Key == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2 (stop at the failing run)", calls)
	}

	// Clean walk visits every run and returns nil.
	calls = 0
	if err := RunsErr(a, func(start, end int) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Errorf("clean walk visited %d runs, want 4", calls)
	}
	if err := RunsErr(nil, func(int, int) error { return boom }); err != nil {
		t.Errorf("empty input: err = %v, want nil", err)
	}
}

// FuzzDecodeBlock feeds arbitrary bytes to the spill-block decoder, the
// out-of-core shuffle's trust boundary with the disk. DecodeBlock must
// never panic; on success it consumes 0 < n <= len(b) bytes, leaves dst's
// prefix alone, and the records it accepted re-encode (raw and
// compressed) to blocks that decode back to the same records. Run with
// `go test -fuzz=FuzzDecodeBlock -run=^$ ./internal/rec`; the seed
// corpus always runs under plain `go test`.
func FuzzDecodeBlock(f *testing.F) {
	// One encoder and decoder serve every input: a fresh DEFLATE state
	// per call would dominate the run. (Fuzz calls within one worker
	// process are sequential.)
	var enc BlockEncoder
	var dec BlockDecoder
	for _, compress := range []bool{false, true} {
		for _, n := range []int{0, 1, 5, 40} {
			b, err := enc.AppendBlock(nil, blockRecords(n, 7, int64(n)+3), compress)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
			f.Add(b[:len(b)-1])
			f.Add(append(b, 0xB5))
		}
	}
	f.Add([]byte{})
	f.Add(make([]byte, BlockHeaderSize))
	f.Fuzz(func(t *testing.T, b []byte) {
		prefix := []Record{{Key: 1, Value: 2}}
		got, n, err := dec.DecodeBlock(prefix, b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if len(got) < 1 || got[0] != prefix[0] {
			t.Fatalf("dst prefix clobbered: %v", got[:min(1, len(got))])
		}
		recs := got[1:]
		for _, compress := range []bool{false, true} {
			blk, err := enc.AppendBlock(nil, recs, compress)
			if err != nil {
				t.Fatalf("re-encode (compress=%v) of %d accepted records: %v", compress, len(recs), err)
			}
			back, m, err := dec.DecodeBlock(nil, blk)
			if err != nil {
				t.Fatalf("re-encoded block (compress=%v) does not decode: %v", compress, err)
			}
			if m != len(blk) || len(back) != len(recs) {
				t.Fatalf("re-encoded block (compress=%v): consumed %d of %d bytes, %d of %d records",
					compress, m, len(blk), len(back), len(recs))
			}
			for i := range recs {
				if back[i] != recs[i] {
					t.Fatalf("re-encoded block (compress=%v): record %d = %v, want %v", compress, i, back[i], recs[i])
				}
			}
		}
	})
}
