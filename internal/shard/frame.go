package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
)

// The wire format is a stream of self-delimiting checksummed frames:
//
//	magic   [4]byte  "QSWF"
//	version uint8    ProtocolVersion
//	type    uint8    frameType
//	reserved uint16  zero
//	length  uint32   payload length in bytes
//	payload [length]byte (JSON message, empty for heartbeats)
//	crc     uint64   CRC64/ECMA over header+payload
//
// The same codec frames both the worker protocol and the coordinator's
// checkpoint log, so corruption anywhere — a chaos-flipped response bit, a
// torn checkpoint tail — is caught by the same CRC check.

// ProtocolVersion is the shard wire-format version this build speaks.
// Version history:
//
//	1: initial format; heartbeat frames carry no payload.
//	2: heartbeat frames may carry a WorkerStats JSON payload (empty
//	   payloads remain valid, so v1 peers stay readable).
//
// Peers negotiate down during the hello handshake: a session with a v1
// peer is framed at version 1 with empty heartbeats.
const ProtocolVersion = 2

// MinProtocolVersion is the oldest peer version still accepted; frames
// and hellos outside [MinProtocolVersion, ProtocolVersion] are rejected.
const MinProtocolVersion = 1

// maxFramePayload bounds a frame's payload so a corrupted length field
// cannot trigger an absurd allocation.
const maxFramePayload = 64 << 20

// frameHeaderLen is the fixed prefix before the payload; frameTrailerLen
// the CRC suffix.
const (
	frameHeaderLen  = 12
	frameTrailerLen = 8
)

var frameMagic = [4]byte{'Q', 'S', 'W', 'F'}

var crcTable = crc64.MakeTable(crc64.ECMA)

// frameType tags a frame's payload.
type frameType uint8

const (
	ftHello frameType = iota + 1
	ftHelloAck
	ftRatioChunk
	ftHuntChunk
	ftResult
	ftChunkError
	ftHeartbeat
	ftShutdown
	ftCheckpoint
)

// appendFrame appends one encoded frame at the current protocol version
// to dst and returns it.
func appendFrame(dst []byte, ft frameType, payload []byte) []byte {
	return appendFrameV(dst, ProtocolVersion, ft, payload)
}

// appendFrameV appends one encoded frame at an explicit version — the
// negotiated session version when talking to an older peer.
func appendFrameV(dst []byte, version byte, ft frameType, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, frameMagic[:]...)
	dst = append(dst, version, byte(ft), 0, 0)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	crc := crc64.Checksum(dst[start:], crcTable)
	return binary.BigEndian.AppendUint64(dst, crc)
}

// writeFrame encodes and writes one frame.
func writeFrame(w io.Writer, ft frameType, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("shard: frame payload %d bytes exceeds limit %d", len(payload), maxFramePayload)
	}
	_, err := w.Write(appendFrame(nil, ft, payload))
	return err
}

// readFrame reads and verifies one frame, returning its type, payload and
// total encoded size. io.EOF is returned verbatim when the stream ends
// cleanly on a frame boundary; any other failure (short read, bad magic,
// version skew, non-zero reserved bytes, oversized length, CRC mismatch)
// is an error that poisons the stream — framing cannot be resynchronized,
// so callers must tear the connection down.
func readFrame(r io.Reader) (frameType, []byte, int, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, 0, io.EOF
		}
		return 0, nil, 0, fmt.Errorf("shard: short frame header: %w", err)
	}
	if [4]byte(hdr[:4]) != frameMagic {
		return 0, nil, 0, fmt.Errorf("shard: bad frame magic %x", hdr[:4])
	}
	if hdr[4] < MinProtocolVersion || hdr[4] > ProtocolVersion {
		return 0, nil, 0, fmt.Errorf("shard: protocol version %d, want %d..%d", hdr[4], MinProtocolVersion, ProtocolVersion)
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return 0, nil, 0, fmt.Errorf("shard: frame reserved bytes %x, want 0000", hdr[6:8])
	}
	n := binary.BigEndian.Uint32(hdr[8:12])
	if n > maxFramePayload {
		return 0, nil, 0, fmt.Errorf("shard: frame payload %d bytes exceeds limit %d", n, maxFramePayload)
	}
	body := make([]byte, int(n)+frameTrailerLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, 0, fmt.Errorf("shard: short frame body: %w", err)
	}
	crc := crc64.Checksum(hdr[:], crcTable)
	crc = crc64.Update(crc, crcTable, body[:n])
	if got := binary.BigEndian.Uint64(body[n:]); got != crc {
		return 0, nil, 0, fmt.Errorf("shard: frame checksum mismatch (got %016x, want %016x)", got, crc)
	}
	total := frameHeaderLen + int(n) + frameTrailerLen
	return frameType(hdr[5]), body[:n:n], total, nil
}
