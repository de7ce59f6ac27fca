package rec

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Length-prefixed batch framing for streaming records over pipes and
// sockets: each frame is a 4-byte little-endian record count followed by
// count records of 16 bytes each (8-byte little-endian key, 8-byte
// little-endian payload — the gendata file layout). A zero count is a
// valid, empty frame. The framing carries no checksum; it is meant for
// same-host pipes (gendata -stream | semisortd -pipe) and loopback
// sockets, where the kernel already guarantees integrity.

// MaxFrameRecords bounds the record count a reader accepts in one frame
// (64 Mi records = 1 GiB of payload), so a corrupt or hostile length
// prefix cannot trigger an arbitrary allocation.
const MaxFrameRecords = 64 << 20

// RecordSize is the wire size of one record in bytes.
const RecordSize = 16

// AppendRecords appends the wire encoding of recs (without any length
// prefix) to dst and returns the extended slice.
func AppendRecords(dst []byte, recs []Record) []byte {
	for _, r := range recs {
		dst = binary.LittleEndian.AppendUint64(dst, r.Key)
		dst = binary.LittleEndian.AppendUint64(dst, r.Value)
	}
	return dst
}

// DecodeRecords decodes len(b)/16 records from their wire encoding,
// appending to dst (pass nil to allocate). It fails if len(b) is not a
// multiple of RecordSize.
func DecodeRecords(dst []Record, b []byte) ([]Record, error) {
	if len(b)%RecordSize != 0 {
		return dst, fmt.Errorf("rec: %d payload bytes is not a multiple of the %d-byte record size", len(b), RecordSize)
	}
	for off := 0; off < len(b); off += RecordSize {
		dst = append(dst, Record{
			Key:   binary.LittleEndian.Uint64(b[off : off+8]),
			Value: binary.LittleEndian.Uint64(b[off+8 : off+16]),
		})
	}
	return dst, nil
}

// WriteFrame writes one length-prefixed frame holding recs to w.
func WriteFrame(w io.Writer, recs []Record) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(recs)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("rec: write frame header: %w", err)
	}
	// Encode in bounded chunks so huge batches don't need a full-size
	// scratch buffer.
	const chunk = 4096
	buf := make([]byte, 0, chunk*RecordSize)
	for len(recs) > 0 {
		n := min(len(recs), chunk)
		buf = AppendRecords(buf[:0], recs[:n])
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("rec: write frame payload: %w", err)
		}
		recs = recs[n:]
	}
	return nil
}

// ReadFrame reads one frame from r, appending its records to dst (pass
// nil to allocate) and returning the extended slice. At a clean
// end-of-stream (EOF before any header byte) it returns io.EOF; a stream
// cut inside a frame returns io.ErrUnexpectedEOF with got/want counts.
func ReadFrame(r io.Reader, dst []Record) ([]Record, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return dst, io.EOF
		}
		return dst, fmt.Errorf("rec: read frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrameRecords {
		return dst, fmt.Errorf("rec: frame header claims %d records, limit %d", n, MaxFrameRecords)
	}
	want := int64(n) * RecordSize
	dst, got, err := readChunks(r, dst, want)
	if err != nil {
		return dst, fmt.Errorf("rec: read frame payload: %w", err)
	}
	if got < want {
		return dst, fmt.Errorf("rec: frame truncated: got %d of %d records: %w",
			got/RecordSize, n, io.ErrUnexpectedEOF)
	}
	return dst, nil
}

// ReadRecords reads r to EOF and decodes it as a flat sequence of
// records, appending them to dst (pass nil to allocate). It returns the
// extended slice and the number of bytes read. It reads in fixed 64 KiB
// chunks and decodes each chunk's whole records as it arrives, so memory
// beyond dst stays at one chunk whatever the stream's length. A stream
// whose length is not a multiple of RecordSize fails with the error
// DecodeRecords gives for the same bytes; a read error other than io.EOF
// is returned wrapped. On error, dst holds the whole records decoded so
// far.
func ReadRecords(r io.Reader, dst []Record) ([]Record, int64, error) {
	dst, n, err := readChunks(r, dst, -1)
	if err != nil {
		return dst, n, fmt.Errorf("rec: read records: %w", err)
	}
	if n%RecordSize != 0 {
		return dst, n, fmt.Errorf("rec: %d payload bytes is not a multiple of the %d-byte record size", n, RecordSize)
	}
	return dst, n, nil
}

// chunkBytes is the read size of readChunks: 4096 records.
const chunkBytes = 4096 * RecordSize

// chunkPool recycles readChunks' read buffers, so a warm reader decodes
// without allocating.
var chunkPool = sync.Pool{New: func() any { return new([chunkBytes]byte) }}

// readChunks is the decode loop behind ReadFrame and ReadRecords. It
// reads r in chunks of up to chunkBytes until EOF or, when limit >= 0,
// until limit bytes have been read, and appends every whole record to
// dst. It returns the extended slice, the bytes read and the first read
// error other than io.EOF. A tail shorter than one record is read but not
// decoded; the caller sees it as a byte count that is not a multiple of
// RecordSize.
func readChunks(r io.Reader, dst []Record, limit int64) ([]Record, int64, error) {
	buf := chunkPool.Get().(*[chunkBytes]byte)
	defer chunkPool.Put(buf)
	var n int64
	fill := 0 // bytes held in buf; less than RecordSize between reads
	for limit < 0 || n < limit {
		end := len(buf)
		if limit >= 0 {
			end = int(min(int64(end), int64(fill)+limit-n))
		}
		m, err := r.Read(buf[fill:end])
		n += int64(m)
		fill += m
		whole := fill - fill%RecordSize
		dst, _ = DecodeRecords(dst, buf[:whole])
		fill = copy(buf[:], buf[whole:fill])
		if err == io.EOF {
			break
		}
		if err != nil {
			return dst, n, err
		}
	}
	return dst, n, nil
}
