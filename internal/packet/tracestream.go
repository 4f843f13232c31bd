package packet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// traceStreamWindow is how many records a TraceStream decodes per refill.
// 512 records is 16 KiB of wire data — one read out of the 64 KiB file
// buffer — and bounds the stream's steady-state memory regardless of trace
// length.
const (
	traceStreamWindow = 512
	traceReadBuffer   = 64 << 10
)

// TraceStream reads a binary trace (the QSWTRC01 format of trace.go)
// incrementally: the header is parsed on open, records are decoded a
// window at a time into a reusable buffer, and the CRC64 trailer is
// verified when the last record has been consumed. Memory use is one
// window regardless of the trace size, so traces far larger than RAM
// replay through RunCIOQStream/RunCrossbarStream.
//
// Every record passes the same checks a full ReadBinary load applies —
// field range checks at decode time plus the sequence ordering invariants
// (nondecreasing arrivals, strictly ascending IDs) checked incrementally —
// and failures carry the record index and byte offset. One caveat is
// inherent to streaming: the checksum confirms the bytes *behind* the read
// position, so a corrupted tail is only detected when reached, after
// earlier records have already been handed out.
type TraceStream struct {
	// Inputs and Outputs are the port geometry from the trace header.
	Inputs  int
	Outputs int

	f     *os.File
	cr    *crcReader
	nr    *countingReader
	count uint64 // records per the header
	read  uint64 // records decoded so far

	raw []byte // one window of wire records, reused across refills
	buf Sequence
	pos int

	prevArrival int
	prevID      int64

	done bool // all records consumed and the trailer verified
	err  error
}

// OpenTraceStream opens a binary trace file for incremental reading. The
// header (magic, geometry, count) is read eagerly so geometry errors
// surface before any simulation starts; record decoding is lazy. JSON
// traces are not streamable — use LoadTrace for those.
func OpenTraceStream(path string) (*TraceStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open trace stream: %w", err)
	}
	ts, err := newTraceStream(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("open trace stream %s: %w", path, err)
	}
	ts.f = f
	return ts, nil
}

// newTraceStream parses the header from r and readies the record cursor.
func newTraceStream(r io.Reader) (*TraceStream, error) {
	cr := &crcReader{r: r}
	nr := &countingReader{r: bufio.NewReaderSize(cr, traceReadBuffer)}
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(nr, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic at byte offset %d: %w", nr.off, err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var inputs, outputs uint32
	var count uint64
	if err := binary.Read(nr, binary.LittleEndian, &inputs); err != nil {
		return nil, fmt.Errorf("trace: reading header at byte offset %d: %w", nr.off, err)
	}
	if err := binary.Read(nr, binary.LittleEndian, &outputs); err != nil {
		return nil, fmt.Errorf("trace: reading header at byte offset %d: %w", nr.off, err)
	}
	if err := binary.Read(nr, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("trace: reading header at byte offset %d: %w", nr.off, err)
	}
	if count > 1<<40 {
		return nil, fmt.Errorf("trace: implausible packet count %d", count)
	}
	return &TraceStream{
		Inputs: int(inputs), Outputs: int(outputs),
		cr: cr, nr: nr, count: count,
		raw:    make([]byte, traceStreamWindow*traceRecordLen),
		buf:    make(Sequence, 0, traceStreamWindow),
		prevID: -1,
	}, nil
}

// fill reads the next window of records with one read and decodes them,
// validating each against the trace geometry and the sequence ordering
// invariants. When the final record has been decoded it reads and verifies
// the CRC trailer. Errors name the record and the byte offset a
// record-at-a-time reader would stand at: the end of a record that fails a
// check, the cut itself in a truncated file.
func (t *TraceStream) fill() {
	if t.err != nil || t.done || t.pos < len(t.buf) {
		return
	}
	t.buf = t.buf[:0]
	t.pos = 0
	want := t.count - t.read
	if want > traceStreamWindow {
		want = traceStreamWindow
	}
	base := t.nr.off
	n, rerr := io.ReadFull(t.nr, t.raw[:want*traceRecordLen])
	// A short read still decodes the whole records in front of the cut, so
	// a bad record there is reported before the truncation behind it.
	for lo := 0; lo+traceRecordLen <= n; lo += traceRecordLen {
		off := base + int64(lo+traceRecordLen)
		p, err := decodeRecord(t.raw[lo:lo+traceRecordLen], t.Inputs, t.Outputs)
		if err != nil {
			t.err = fmt.Errorf("trace: reading record %d of %d at byte offset %d: %w", t.read, t.count, off, err)
			return
		}
		if p.Arrival < t.prevArrival {
			t.err = fmt.Errorf("trace: record %d at byte offset %d: arrival %d before previous %d",
				t.read, off, p.Arrival, t.prevArrival)
			return
		}
		if p.ID <= t.prevID {
			t.err = fmt.Errorf("trace: record %d at byte offset %d: id %d not ascending (prev %d)",
				t.read, off, p.ID, t.prevID)
			return
		}
		t.prevArrival, t.prevID = p.Arrival, p.ID
		t.buf = append(t.buf, p)
		t.read++
	}
	if rerr != nil {
		// A file cut on a record boundary ends cleanly for the record that
		// is missing; only a cut inside a record is an unexpected EOF.
		if rerr == io.ErrUnexpectedEOF && n%traceRecordLen == 0 {
			rerr = io.EOF
		}
		t.err = fmt.Errorf("trace: reading record %d of %d at byte offset %d: %w", t.read, t.count, t.nr.off, rerr)
		return
	}
	if t.read == t.count {
		t.finish()
	}
}

// finish reads the trailer and verifies the checksum over everything
// before it.
func (t *TraceStream) finish() {
	trailerOff := t.nr.off
	var trailer [8]byte
	if _, err := io.ReadFull(t.nr, trailer[:]); err != nil {
		t.err = fmt.Errorf("trace: reading checksum at byte offset %d: %w", t.nr.off, err)
		return
	}
	want := t.cr.sum
	got := binary.LittleEndian.Uint64(trailer[:])
	if got != want {
		t.err = fmt.Errorf("trace: checksum mismatch over bytes [0, %d): file has %#x, computed %#x",
			trailerOff, got, want)
		return
	}
	t.done = true
}

// Peek implements ArrivalStream.
func (t *TraceStream) Peek() (Packet, bool) {
	t.fill()
	if t.err != nil || t.pos >= len(t.buf) {
		return Packet{}, false
	}
	return t.buf[t.pos], true
}

// Next implements ArrivalStream.
func (t *TraceStream) Next() (Packet, bool) {
	p, ok := t.Peek()
	if ok {
		t.pos++
	}
	return p, ok
}

// Err implements ArrivalStream: nil after a clean, checksum-verified end
// of trace, the failure otherwise.
func (t *TraceStream) Err() error { return t.err }

// Close releases the underlying file. It does not verify any unread
// remainder of the trace.
func (t *TraceStream) Close() error {
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}
