package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// The checkpoint log is an append-only file of CRC-framed records, one per
// completed chunk, fsync'd before its append returns so a completed chunk
// survives a coordinator crash. Appends are group-committed: records that
// arrive while a write and fsync are in flight queue up, and the next
// leader writes them all with one write and covers them with one fsync,
// so concurrent chunks share fsyncs without weakening the contract. A
// record maps a chunk's canonical spec bytes (its checkpoint key) to its
// verified result bytes. Loading
// tolerates a torn tail — a crash mid-append leaves a final partial frame,
// which is detected by the frame CRC and truncated away — so a restarted
// coordinator resumes from exactly the set of chunks that fully committed,
// re-executing only the rest.

// checkpointRecord is the JSON payload of one log frame.
type checkpointRecord struct {
	// Type is the chunk's request frame type (ratio or hunt chunk).
	Type uint8 `json:"type"`
	// Key is the chunk's canonical spec payload.
	Key json.RawMessage `json:"key"`
	// Result is the chunk's result payload.
	Result json.RawMessage `json:"result"`
}

// checkpointLog appends records to the log file by group commit: at most
// one group is being written and synced at a time (flushing), and the
// records that arrive meanwhile gather in the next group (fill), which the
// first of its appenders to find no group in flight writes and syncs.
type checkpointLog struct {
	f        logFile
	mu       sync.Mutex
	cond     sync.Cond // signalled when a group completes
	fill     *ckptGroup
	flushing bool
	closed   bool
}

// logFile is what the log needs of its file; *os.File implements it.
type logFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// ckptGroup is one group commit: the frames of its records, written and
// synced together, and the outcome every one of them returns.
type ckptGroup struct {
	buf  []byte
	done bool
	err  error
}

// ckptKey builds the in-memory cache key for a chunk: the request frame
// type joined with the canonical spec bytes.
func ckptKey(ft frameType, payload []byte) string {
	return string([]byte{byte(ft)}) + string(payload)
}

// openCheckpointLog opens (creating if needed) the log at path, replays
// the committed records into a key -> result map, truncates any torn tail
// and positions the file for appending.
func openCheckpointLog(path string) (*checkpointLog, map[string][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: open checkpoint log: %w", err)
	}
	cache := map[string][]byte{}
	br := bufio.NewReader(f)
	var good int64
	for {
		ft, payload, n, err := readFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn tail (crash mid-append) or corruption: keep the committed
			// prefix, drop the rest.
			break
		}
		if ft != ftCheckpoint {
			break
		}
		var rec checkpointRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		cache[ckptKey(frameType(rec.Type), rec.Key)] = bytes.Clone(rec.Result)
		good += int64(n)
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("shard: truncate checkpoint tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("shard: seek checkpoint log: %w", err)
	}
	return newCheckpointLog(f), cache, nil
}

// newCheckpointLog wraps a file positioned for appending.
func newCheckpointLog(f logFile) *checkpointLog {
	l := &checkpointLog{f: f}
	l.cond.L = &l.mu
	return l
}

// append commits one record: it joins the filling group and returns once
// that group is written and fsync'd, so the record is durable when append
// returns. A failed write or fsync fails every record of its group; the
// next group tries again.
func (l *checkpointLog) append(ft frameType, key, result []byte) error {
	payload := marshalMsg(checkpointRecord{Type: uint8(ft), Key: key, Result: result})
	frame := appendFrame(nil, ftCheckpoint, payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("shard: append checkpoint: %w", os.ErrClosed)
	}
	if l.fill == nil {
		l.fill = &ckptGroup{}
	}
	g := l.fill
	g.buf = append(g.buf, frame...)
	for l.flushing && !g.done {
		l.cond.Wait()
	}
	if g.done {
		return g.err
	}
	// No group is in flight and g is still filling: lead it.
	l.fill, l.flushing = nil, true
	l.mu.Unlock()
	err := l.commit(g.buf)
	l.mu.Lock()
	g.done, g.err, l.flushing = true, err, false
	l.cond.Broadcast()
	return err
}

// commit writes one group's frames and fsyncs them.
func (l *checkpointLog) commit(frames []byte) error {
	if _, err := l.f.Write(frames); err != nil {
		return fmt.Errorf("shard: append checkpoint: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("shard: sync checkpoint: %w", err)
	}
	return nil
}

// close waits until every queued record is committed, then closes the
// log file; later appends fail.
func (l *checkpointLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing || l.fill != nil {
		l.cond.Wait()
	}
	if l.closed {
		return os.ErrClosed
	}
	l.closed = true
	return l.f.Close()
}
