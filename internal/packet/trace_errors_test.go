package packet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// encodeSample renders sampleTrace(1, 20) to binary bytes.
func encodeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sampleTrace(1, 20).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryTruncationErrorNamesOffset: a truncated trace must be
// diagnosable from the error alone — the failing record and the exact byte
// offset where parsing stopped.
func TestBinaryTruncationErrorNamesOffset(t *testing.T) {
	data := encodeSample(t)
	const headerLen = 8 + 4 + 4 + 8
	// Cut mid-record: the offset in the error is where the consumer stood
	// when the read failed (the truncation point).
	cut := headerLen + 3*32 + 10
	_, err := ReadBinary(bytes.NewReader(data[:cut]))
	if err == nil {
		t.Fatal("truncated trace parsed")
	}
	if !strings.Contains(err.Error(), "reading record 3") {
		t.Errorf("err %q does not name record 3", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("at byte offset %d", cut)) {
		t.Errorf("err %q does not name byte offset %d", err, cut)
	}
}

func TestBinaryHeaderTruncationNamesOffset(t *testing.T) {
	data := encodeSample(t)
	_, err := ReadBinary(bytes.NewReader(data[:10]))
	if err == nil {
		t.Fatal("truncated header parsed")
	}
	if !strings.Contains(err.Error(), "at byte offset") {
		t.Errorf("err %q does not name a byte offset", err)
	}
}

// TestBinaryChecksumErrorNamesRange: a corrupted trace's checksum error
// states the byte range the checksum covers and both sums.
func TestBinaryChecksumErrorNamesRange(t *testing.T) {
	data := encodeSample(t)
	data[len(data)/2] ^= 1
	_, err := ReadBinary(bytes.NewReader(data))
	if err == nil {
		t.Fatal("corrupted trace parsed")
	}
	wantRange := fmt.Sprintf("over bytes [0, %d)", len(data)-8)
	if !strings.Contains(err.Error(), wantRange) {
		t.Errorf("err %q does not name the checksummed range %q", err, wantRange)
	}
}

// TestJSONDecodeErrorNamesOffset: malformed JSON errors carry the decoder
// offset.
func TestJSONDecodeErrorNamesOffset(t *testing.T) {
	_, err := ReadJSON(strings.NewReader(`{"inputs": 2, "outputs": 2, "packets": [{"arrival": }]}`))
	if err == nil {
		t.Fatal("malformed json parsed")
	}
	if !strings.Contains(err.Error(), "at byte offset") {
		t.Errorf("err %q does not name a byte offset", err)
	}
}

// TestLoadTraceSniffsFormats: LoadTrace reads both formats from disk,
// picking by magic.
func TestLoadTraceSniffsFormats(t *testing.T) {
	dir := t.TempDir()
	tr := sampleTrace(2, 12)

	binPath := filepath.Join(dir, "t.qsw")
	var bin bytes.Buffer
	if err := tr.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "t.json")
	var js bytes.Buffer
	if err := tr.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jsonPath, js.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{binPath, jsonPath} {
		got, err := LoadTrace(path)
		if err != nil {
			t.Fatalf("LoadTrace(%s): %v", path, err)
		}
		if len(got.Packets) != len(tr.Packets) {
			t.Errorf("LoadTrace(%s): %d packets, want %d", path, len(got.Packets), len(tr.Packets))
		}
	}
}

// TestLoadTraceWrapsPath: errors from LoadTrace name the file, so a bad
// trace in a long batch identifies itself.
func TestLoadTraceWrapsPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.qsw")
	data := encodeSample(t)
	data[len(data)-1] ^= 1 // break the checksum
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadTrace(path)
	if err == nil {
		t.Fatal("corrupted trace loaded")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("err %q does not name the file path", err)
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("err %q does not surface the checksum failure", err)
	}
	if _, err := LoadTrace(filepath.Join(dir, "missing.qsw")); err == nil {
		t.Error("missing file loaded")
	}
}

// TestTraceStreamTruncationMatchesReadBinary: the stream reads a window of
// records at a time, ReadBinary one record at a time; wherever a file is
// cut — inside a record, on a record boundary, on a window boundary, before
// or inside the trailer — both must report the same record, byte offset and
// cause, and the stream must first hand out every window in front of the
// one that failed.
func TestTraceStreamTruncationMatchesReadBinary(t *testing.T) {
	tr := sampleTrace(7, 600)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	const headerLen = 8 + 4 + 4 + 8
	count := len(tr.Packets)
	if count <= 2*traceStreamWindow {
		t.Fatalf("sample trace has %d records; need more than two windows", count)
	}
	for _, cut := range []int{
		headerLen,
		headerLen + 3*traceRecordLen + 10,
		headerLen + 3*traceRecordLen,
		headerLen + traceStreamWindow*traceRecordLen,
		headerLen + traceStreamWindow*traceRecordLen + 1,
		headerLen + (traceStreamWindow+188)*traceRecordLen + 31,
		headerLen + 2*traceStreamWindow*traceRecordLen,
		headerLen + count*traceRecordLen,
		headerLen + count*traceRecordLen + 4,
	} {
		_, want := ReadBinary(bytes.NewReader(data[:cut]))
		if want == nil {
			t.Fatalf("cut %d: ReadBinary parsed a truncated trace", cut)
		}
		ts, err := newTraceStream(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header parse: %v", cut, err)
		}
		got := drain(t, ts)
		if serr := ts.Err(); serr == nil || serr.Error() != want.Error() {
			t.Errorf("cut %d: stream err %q, ReadBinary err %q", cut, serr, want)
		}
		whole := (cut - headerLen) / traceRecordLen // records in front of the cut
		handed := min(whole, count-1) / traceStreamWindow * traceStreamWindow
		if len(got) != handed || !reflect.DeepEqual(got, tr.Packets[:handed]) && handed > 0 {
			t.Errorf("cut %d: stream handed out %d records before failing, want the first %d", cut, len(got), handed)
		}
	}
}
