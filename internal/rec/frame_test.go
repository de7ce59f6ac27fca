package rec

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

func TestFrameRoundTrip(t *testing.T) {
	batches := [][]Record{
		nil,
		{{Key: 1, Value: 2}},
		make([]Record, 10000),
	}
	for i := range batches[2] {
		batches[2][i] = Record{Key: uint64(i % 37), Value: uint64(i)}
	}

	var buf bytes.Buffer
	for _, b := range batches {
		if err := WriteFrame(&buf, b); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}

	for i, want := range batches {
		got, err := ReadFrame(&buf, nil)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("frame %d: got %d records, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("frame %d record %d: got %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
	if _, err := ReadFrame(&buf, nil); err != io.EOF {
		t.Fatalf("at end of stream: err = %v, want io.EOF", err)
	}
}

func TestFrameAppendsToDst(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []Record{{Key: 7, Value: 8}}); err != nil {
		t.Fatal(err)
	}
	dst := []Record{{Key: 1, Value: 1}}
	out, err := ReadFrame(&buf, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != (Record{Key: 1, Value: 1}) || out[1] != (Record{Key: 7, Value: 8}) {
		t.Fatalf("ReadFrame did not append: %+v", out)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]Record, 100)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Cut inside the payload: ErrUnexpectedEOF, not a clean EOF.
	_, err := ReadFrame(bytes.NewReader(full[:4+50*RecordSize+3]), nil)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("payload cut: err = %v, want ErrUnexpectedEOF", err)
	}
	// Cut inside the header: also an error, not EOF.
	_, err = ReadFrame(bytes.NewReader(full[:2]), nil)
	if err == nil || errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header cut: err = %v, want unexpected-EOF error", err)
	}
}

func TestFrameRejectsHugeHeader(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(hdr), nil); err == nil {
		t.Fatal("4-billion-record header accepted")
	}
}

func TestDecodeRecordsBadLength(t *testing.T) {
	if _, err := DecodeRecords(nil, make([]byte, 17)); err == nil {
		t.Fatal("17-byte payload accepted")
	}
}

// splitReader serves its data in reads of at most step bytes.
type splitReader struct {
	data []byte
	step int
}

func (s *splitReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), s.step)], s.data)
	s.data = s.data[n:]
	return n, nil
}

var errMidBody = errors.New("connection reset mid-body")

// checkReadRecords reads data through r and checks the result against
// DecodeRecords on the whole of data: the same records, or the same
// error. If r fails after delivering failAt bytes (failAt < 0: never),
// the read error must come back instead, with the records of the bytes
// delivered before it.
func checkReadRecords(t *testing.T, r io.Reader, data []byte, failAt int) {
	t.Helper()
	prefix := []Record{{Key: 7, Value: 9}}
	got, n, err := ReadRecords(r, append([]Record(nil), prefix...))
	if len(got) < 1 || got[0] != prefix[0] {
		t.Fatalf("ReadRecords did not append to dst: %v", got)
	}
	got = got[1:]
	want, wantErr := DecodeRecords(nil, data)
	if failAt >= 0 {
		if !errors.Is(err, errMidBody) {
			t.Fatalf("reader failed after %d bytes: err = %v, want %v", failAt, err, errMidBody)
		}
		if n != int64(failAt) {
			t.Fatalf("reader failed after %d bytes: n = %d", failAt, n)
		}
		want, _ = DecodeRecords(nil, data[:failAt-failAt%RecordSize])
	} else {
		if n != int64(len(data)) {
			t.Fatalf("n = %d, want %d", n, len(data))
		}
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("err = %v, want %v", err, wantErr)
		}
		if wantErr != nil {
			want, _ = DecodeRecords(nil, data[:len(data)-len(data)%RecordSize])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// readerFor returns the reader of kind k over data, and the byte count
// after which it fails (-1: it does not).
func readerFor(k int, data []byte, split int) (io.Reader, int) {
	switch k {
	case 0:
		return &splitReader{data: data, step: split}, -1
	case 1:
		return iotest.OneByteReader(bytes.NewReader(data)), -1
	case 2:
		return iotest.HalfReader(&splitReader{data: data, step: split}), -1
	case 3:
		return iotest.DataErrReader(&splitReader{data: data, step: split}), -1
	default:
		failAt := split % (len(data) + 1)
		return io.MultiReader(&splitReader{data: data[:failAt], step: split}, iotest.ErrReader(errMidBody)), failAt
	}
}

const readerKinds = 5

func TestReadRecordsChunkBoundaries(t *testing.T) {
	for _, size := range []int{0, 15, 16, chunkBytes - 1, chunkBytes, chunkBytes + 16, 3*chunkBytes + 5} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i*131 + i>>8)
		}
		for _, split := range []int{1, 7, 16, 1000, chunkBytes + 3} {
			for k := 0; k < readerKinds; k++ {
				if k == 1 && size > chunkBytes {
					continue // one byte a read: slow, and no different from split 1
				}
				r, failAt := readerFor(k, data, split)
				checkReadRecords(t, r, data, failAt)
			}
		}
	}
}

// FuzzReadRecords checks the streamed decoder against DecodeRecords on
// the whole input, for arbitrary bytes, read splits and reader
// behaviours (short reads, data returned with EOF, a failure mid-body).
// Run with `go test -fuzz=FuzzReadRecords -run=^$ ./internal/rec`; the
// seed corpus always runs under plain `go test`.
func FuzzReadRecords(f *testing.F) {
	f.Add([]byte{}, uint16(1), uint8(0))
	f.Add(make([]byte, 16), uint16(3), uint8(1))
	f.Add(make([]byte, 33), uint16(16), uint8(2))
	f.Add(make([]byte, 48), uint16(5), uint8(3))
	f.Add(make([]byte, 64), uint16(40), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, split uint16, kind uint8) {
		r, failAt := readerFor(int(kind)%readerKinds, data, int(split)+1)
		checkReadRecords(t, r, data, failAt)
	})
}
