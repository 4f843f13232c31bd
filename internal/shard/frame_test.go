package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"strings"
	"testing"
)

// writeFrame encodes and writes one frame.
func writeFrame(w io.Writer, ft frameType, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("shard: frame payload %d bytes exceeds limit %d", len(payload), maxFramePayload)
	}
	_, err := w.Write(appendFrame(nil, ft, payload))
	return err
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte(`{"a":1}`), nil, bytes.Repeat([]byte("x"), 4096)}
	types := []frameType{ftHello, ftHeartbeat, ftResult}
	for i, p := range payloads {
		if err := writeFrame(&buf, types[i], p); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, p := range payloads {
		ft, got, n, err := readFrame(r)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if ft != types[i] {
			t.Errorf("frame %d: type %d, want %d", i, ft, types[i])
		}
		if !bytes.Equal(got, p) {
			t.Errorf("frame %d: payload mismatch", i)
		}
		if want := frameHeaderLen + len(p) + frameTrailerLen; n != want {
			t.Errorf("frame %d: size %d, want %d", i, n, want)
		}
	}
	if _, _, _, err := readFrame(r); err != io.EOF {
		t.Errorf("after last frame: err = %v, want io.EOF", err)
	}
}

// TestFrameDetectsEveryBitFlip is the checksum guarantee the chaos
// Corrupt fault relies on: no single-bit corruption of an encoded frame
// may decode successfully.
func TestFrameDetectsEveryBitFlip(t *testing.T) {
	frame := appendFrame(nil, ftResult, []byte(`{"seeds":[{"seed":7,"ratio":1.5}]}`))
	for bit := 0; bit < len(frame)*8; bit++ {
		mut := bytes.Clone(frame)
		mut[bit/8] ^= 1 << (bit % 8)
		_, _, _, err := readFrame(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("bit flip at %d decoded successfully", bit)
		}
	}
}

func TestFrameTruncation(t *testing.T) {
	frame := appendFrame(nil, ftResult, []byte("payload"))
	for cut := 1; cut < len(frame); cut++ {
		_, _, _, err := readFrame(bytes.NewReader(frame[:cut]))
		if err == nil || err == io.EOF {
			t.Fatalf("truncation at %d bytes: err = %v, want decode error", cut, err)
		}
	}
}

func TestFrameRejectsVersionSkew(t *testing.T) {
	frame := appendFrame(nil, ftHello, []byte(`{}`))
	frame[4]++ // bump version; CRC now also mismatches, but version is checked first
	_, _, _, err := readFrame(bytes.NewReader(frame))
	if err == nil || !strings.Contains(err.Error(), "protocol version") {
		t.Fatalf("err = %v, want protocol version error", err)
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	frame := appendFrame(nil, ftResult, []byte("p"))
	frame[8], frame[9], frame[10], frame[11] = 0xff, 0xff, 0xff, 0xff
	_, _, _, err := readFrame(bytes.NewReader(frame))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v, want payload limit error", err)
	}
}

// TestFrameRejectsReservedBytes: a frame whose reserved bytes are not zero
// is rejected even under a matching CRC, since it could not re-encode
// identically.
func TestFrameRejectsReservedBytes(t *testing.T) {
	for _, reserved := range [][2]byte{{0, 1}, {0x80, 0}, {0xff, 0xff}} {
		frame := appendFrame(nil, ftResult, []byte(`{}`))
		frame[6], frame[7] = reserved[0], reserved[1]
		body := frame[:len(frame)-frameTrailerLen]
		frame = binary.BigEndian.AppendUint64(body, crc64.Checksum(body, crcTable))
		_, _, _, err := readFrame(bytes.NewReader(frame))
		want := fmt.Sprintf("reserved bytes %02x%02x", reserved[0], reserved[1])
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("reserved %x: err = %v, want it to contain %q", reserved, err, want)
		}
	}
}

// FuzzReadFrame feeds raw bytes to the frame decoder: it must either fail
// or return a frame that re-encodes to exactly the bytes it consumed. Each
// input is decoded as given and once more with a valid CRC written where
// its length field puts the trailer, so mutated headers get past the
// checksum.
func FuzzReadFrame(f *testing.F) {
	result := appendFrame(nil, ftResult, []byte(`{"seeds":[{"seed":7,"ratio":1.5}]}`))
	f.Add(result)
	f.Add(appendFrameV(nil, 1, ftHello, []byte(`{"version":1}`)))
	f.Add(appendFrameV(nil, 2, ftCheckpoint, []byte(`{}`)))
	f.Add(appendFrame(nil, ftHeartbeat, nil))
	// One bit flip in each header field, the payload and the CRC, and cuts
	// at the field boundaries, as in the bit-flip and truncation tests.
	for _, bit := range []int{0, 37, 44, 50, 70, 100, len(result)*8 - 1} {
		mut := bytes.Clone(result)
		mut[bit/8] ^= 1 << (bit % 8)
		f.Add(mut)
	}
	for _, cut := range []int{1, frameHeaderLen - 1, frameHeaderLen, len(result) - frameTrailerLen, len(result) - 1} {
		f.Add(bytes.Clone(result[:cut]))
	}
	decode := func(t *testing.T, data []byte) {
		ft, payload, n, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got := appendFrameV(nil, data[4], ft, payload); !bytes.Equal(got, data[:n]) {
			t.Fatalf("frame re-encodes as %x, consumed %x", got, data[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decode(t, data)
		if len(data) < frameHeaderLen {
			return
		}
		body := frameHeaderLen + int(binary.BigEndian.Uint32(data[8:12]))
		if body > len(data)-frameTrailerLen {
			return
		}
		sealed := bytes.Clone(data)
		binary.BigEndian.PutUint64(sealed[body:], crc64.Checksum(sealed[:body], crcTable))
		decode(t, sealed)
	})
}
