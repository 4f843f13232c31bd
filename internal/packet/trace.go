package packet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"io"
	"os"
)

// Trace file formats.
//
// The binary format is a compact little-endian layout with a CRC64 trailer
// so corrupt or truncated traces are detected on load:
//
//	magic   [8]byte  "QSWTRC01"
//	inputs  uint32
//	outputs uint32
//	count   uint64
//	records count * { arrival int64, in int32, out int32, value int64, id int64 }
//	crc64   uint64   (ECMA polynomial, over everything before the trailer)
//
// The JSON format is a single object with a header and a packet array; it
// is self-describing and convenient for hand-editing small adversarial
// sequences.

const (
	traceMagic     = "QSWTRC01"
	traceRecordLen = 32 // bytes per record on the wire
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Trace couples a sequence with the port geometry it was generated for.
type Trace struct {
	Inputs  int      `json:"inputs"`
	Outputs int      `json:"outputs"`
	Packets Sequence `json:"packets"`
}

// NextArrival returns the earliest arrival slot >= from in the trace, or
// -1 when none exists; see Sequence.NextArrival.
func (tr *Trace) NextArrival(from int) int { return tr.Packets.NextArrival(from) }

// WriteBinary serializes the trace in the binary format described above.
func (tr *Trace) WriteBinary(w io.Writer) error {
	if err := tr.Packets.Validate(tr.Inputs, tr.Outputs); err != nil {
		return fmt.Errorf("trace: refusing to write invalid sequence: %w", err)
	}
	cw := &crcWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(tr.Inputs)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(tr.Outputs)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(tr.Packets))); err != nil {
		return err
	}
	var rec [traceRecordLen]byte
	for _, p := range tr.Packets {
		binary.LittleEndian.PutUint64(rec[0:], uint64(p.Arrival))
		binary.LittleEndian.PutUint32(rec[8:], uint32(p.In))
		binary.LittleEndian.PutUint32(rec[12:], uint32(p.Out))
		binary.LittleEndian.PutUint64(rec[16:], uint64(p.Value))
		binary.LittleEndian.PutUint64(rec[24:], uint64(p.ID))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// Trailer goes to the raw writer so it is not included in its own CRC.
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], cw.sum)
	_, err := w.Write(trailer[:])
	return err
}

// ReadBinary parses a binary trace, verifying magic, every record and
// the checksum: it drains a TraceStream over r, so it reports exactly the
// stream's errors, which name the record and the byte offset at which
// parsing failed, so a truncated or corrupted trace is diagnosable without
// a hex dump.
func ReadBinary(r io.Reader) (*Trace, error) {
	ts, err := newTraceStream(r)
	if err != nil {
		return nil, err
	}
	ts.verifyFirst = true
	// The count is untrusted until the CRC trailer verifies, so cap the
	// preallocation: a corrupted header must fail on a short read, not
	// OOM the process. append grows honest large traces as needed.
	tr := &Trace{Inputs: ts.Inputs, Outputs: ts.Outputs, Packets: make(Sequence, 0, min(ts.count, 1<<20))}
	for ts.fill(); ts.pos < len(ts.buf); ts.fill() {
		tr.Packets = append(tr.Packets, ts.buf...)
		ts.pos = len(ts.buf)
	}
	if ts.err != nil {
		return nil, ts.err
	}
	return tr, nil
}

// maxInt is the largest value representable in the platform's int.
const maxInt = int64(^uint(0) >> 1)

// decodeRecord converts one 32-byte binary record into a Packet,
// range-checking every field before the int64/int32 wire values are
// narrowed to int: a record whose arrival does not fit the platform's int
// (or is negative), whose ports fall outside the header geometry, or whose
// value is below 1 is rejected here — at decode time, with the caller
// attaching the record index and byte offset — instead of silently
// wrapping on narrower platforms and failing (or worse, passing) the
// whole-sequence validation later.
func decodeRecord(rec []byte, inputs, outputs int) (Packet, error) {
	arrival := int64(binary.LittleEndian.Uint64(rec[0:]))
	in := int32(binary.LittleEndian.Uint32(rec[8:]))
	out := int32(binary.LittleEndian.Uint32(rec[12:]))
	value := int64(binary.LittleEndian.Uint64(rec[16:]))
	id := int64(binary.LittleEndian.Uint64(rec[24:]))
	if arrival < 0 || arrival > maxInt {
		return Packet{}, fmt.Errorf("arrival %d outside [0, %d]", arrival, maxInt)
	}
	if in < 0 || int64(in) >= int64(inputs) {
		return Packet{}, fmt.Errorf("input port %d outside [0, %d)", in, inputs)
	}
	if out < 0 || int64(out) >= int64(outputs) {
		return Packet{}, fmt.Errorf("output port %d outside [0, %d)", out, outputs)
	}
	if value < 1 {
		return Packet{}, fmt.Errorf("value %d < 1", value)
	}
	return Packet{Arrival: int(arrival), In: int(in), Out: int(out), Value: value, ID: id}, nil
}

// WriteJSON serializes the trace as indented JSON.
func (tr *Trace) WriteJSON(w io.Writer) error {
	if err := tr.Packets.Validate(tr.Inputs, tr.Outputs); err != nil {
		return fmt.Errorf("trace: refusing to write invalid sequence: %w", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tr)
}

// ReadJSON parses a JSON trace and validates it. Decode errors name the
// byte offset at which the document became unreadable.
func ReadJSON(r io.Reader) (*Trace, error) {
	var tr Trace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tr); err != nil {
		return nil, fmt.Errorf("trace: decoding json at byte offset %d: %w", dec.InputOffset(), err)
	}
	if err := tr.Packets.Validate(tr.Inputs, tr.Outputs); err != nil {
		return nil, fmt.Errorf("trace: invalid sequence: %w", err)
	}
	return &tr, nil
}

// LoadTrace reads a trace file in either format, sniffing binary traces
// by their magic and treating everything else as JSON. Errors are wrapped
// with the file path (and, from the readers, the byte offset), so a bad
// trace in a long batch names itself.
func LoadTrace(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("load trace: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, _ := br.Peek(len(traceMagic))
	var tr *Trace
	if string(head) == traceMagic {
		tr, err = ReadBinary(br)
	} else {
		tr, err = ReadJSON(br)
	}
	if err != nil {
		return nil, fmt.Errorf("load trace %s: %w", path, err)
	}
	return tr, nil
}

// countingReader tracks how many bytes its consumer has actually read,
// giving parse errors an exact logical offset.
type countingReader struct {
	r   io.Reader
	off int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.off += int64(n)
	return n, err
}

type crcWriter struct {
	w   io.Writer
	sum uint64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.sum = crc64.Update(c.sum, crcTable, p)
	return c.w.Write(p)
}

// crcReader checksums everything it reads except a sliding 8-byte tail, so
// that the trailer (the stored checksum itself) is excluded without knowing
// in advance where the stream ends: whenever new bytes arrive, all but the
// newest 8 bytes are folded into the running sum.
type crcReader struct {
	r     io.Reader
	sum   uint64
	tail  [8]byte
	ntail int
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.fold(p[:n])
	}
	return n, err
}

// fold advances the sum over the held-back tail plus p, less the newest 8
// bytes, in place: a read of 8 bytes or more retires the whole old tail and
// keeps its own last 8; shorter reads are stitched to the tail in a small
// stack buffer.
func (c *crcReader) fold(p []byte) {
	if len(p) >= 8 {
		c.sum = crc64.Update(c.sum, crcTable, c.tail[:c.ntail])
		c.sum = crc64.Update(c.sum, crcTable, p[:len(p)-8])
		c.ntail = copy(c.tail[:], p[len(p)-8:])
		return
	}
	var buf [16]byte
	n := copy(buf[:], c.tail[:c.ntail])
	n += copy(buf[n:], p)
	if n > 8 {
		c.sum = crc64.Update(c.sum, crcTable, buf[:n-8])
		c.ntail = copy(c.tail[:], buf[n-8:n])
	} else {
		c.ntail = copy(c.tail[:], buf[:n])
	}
}
