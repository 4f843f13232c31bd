package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCheckpointLogRoundTrip(t *testing.T) {
	path := t.TempDir() + "/log.qswf"
	l, cache, err := openCheckpointLog(path)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	if len(cache) != 0 {
		t.Errorf("fresh log has %d cached records", len(cache))
	}
	if err := l.append(ftRatioChunk, []byte(`{"k":1}`), []byte(`{"r":1}`)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.append(ftHuntChunk, []byte(`{"k":2}`), []byte(`{"r":2}`)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, cache, err := openCheckpointLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.close()
	if len(cache) != 2 {
		t.Fatalf("reopened cache has %d records, want 2", len(cache))
	}
	if got := cache[ckptKey(ftRatioChunk, []byte(`{"k":1}`))]; !bytes.Equal(got, []byte(`{"r":1}`)) {
		t.Errorf("record 1 result = %q", got)
	}
	if got := cache[ckptKey(ftHuntChunk, []byte(`{"k":2}`))]; !bytes.Equal(got, []byte(`{"r":2}`)) {
		t.Errorf("record 2 result = %q", got)
	}
	// The same key under a different frame type must be a distinct record.
	if _, ok := cache[ckptKey(ftRatioChunk, []byte(`{"k":2}`))]; ok {
		t.Error("hunt record visible under ratio key")
	}
}

// TestCheckpointLogTruncatesTornTail: a crash mid-append leaves a partial
// final frame; reopening must keep the committed prefix, drop the tail,
// and leave the file positioned so later appends commit cleanly.
func TestCheckpointLogTruncatesTornTail(t *testing.T) {
	path := t.TempDir() + "/log.qswf"
	l, _, err := openCheckpointLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.append(ftRatioChunk, []byte(`{"k":1}`), []byte(`{"r":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	goodSize := fileSize(t, path)

	// Simulate the torn append.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	whole := appendFrame(nil, ftCheckpoint, marshalMsg(checkpointRecord{
		Type: uint8(ftRatioChunk), Key: []byte(`{"k":2}`), Result: []byte(`{"r":2}`),
	}))
	if _, err := f.Write(whole[:len(whole)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, cache, err := openCheckpointLog(path)
	if err != nil {
		t.Fatalf("reopen torn log: %v", err)
	}
	if len(cache) != 1 {
		t.Errorf("torn log replayed %d records, want 1", len(cache))
	}
	if got := fileSize(t, path); got != goodSize {
		t.Errorf("torn tail not truncated: size %d, want %d", got, goodSize)
	}
	// Appends after recovery must land after the good prefix and replay.
	if err := l2.append(ftRatioChunk, []byte(`{"k":3}`), []byte(`{"r":3}`)); err != nil {
		t.Fatal(err)
	}
	if err := l2.close(); err != nil {
		t.Fatal(err)
	}
	l3, cache, err := openCheckpointLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.close()
	if len(cache) != 2 {
		t.Errorf("after recovery+append, replayed %d records, want 2", len(cache))
	}
}

// TestCheckpointLogStopsAtCorruption: a bit flip inside a committed frame
// invalidates that frame and everything after it, never yielding a bad
// record.
func TestCheckpointLogStopsAtCorruption(t *testing.T) {
	path := t.TempDir() + "/log.qswf"
	l, _, err := openCheckpointLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte('a'); i < 'd'; i++ {
		if err := l.append(ftRatioChunk, []byte{'{', '"', i, '"', ':', '1', '}'}, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte in the middle record.
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, cache, err := openCheckpointLog(path)
	if err != nil {
		t.Fatalf("reopen corrupted log: %v", err)
	}
	defer l2.close()
	if len(cache) >= 3 {
		t.Fatalf("corrupted log replayed %d records, want < 3", len(cache))
	}
	for _, res := range cache {
		if !bytes.Equal(res, []byte(`{}`)) {
			t.Errorf("corrupted record surfaced: %q", res)
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// heldFile is a logFile whose Sync blocks until the test sends the error
// it should return on release. It records what was written, how much of
// it the completed Syncs cover, and whether Close ran during a Sync.
type heldFile struct {
	mu          sync.Mutex
	data        []byte
	writes      int
	synced      int // bytes of data covered by a successful Sync
	syncs       int // Syncs started
	inSync      bool
	closed      bool
	closeInSync bool

	entered chan struct{} // one send per Sync started
	release chan error    // the result of the Sync in flight
}

func newHeldFile() *heldFile {
	return &heldFile{entered: make(chan struct{}), release: make(chan error)}
}

func (f *heldFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data = append(f.data, p...)
	f.writes++
	return len(p), nil
}

func (f *heldFile) Sync() error {
	f.mu.Lock()
	f.syncs++
	f.inSync = true
	n := len(f.data)
	f.mu.Unlock()
	f.entered <- struct{}{}
	err := <-f.release
	f.mu.Lock()
	defer f.mu.Unlock()
	f.inSync = false
	if err == nil {
		f.synced = n
	}
	return err
}

func (f *heldFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closeInSync = f.closeInSync || f.inSync
	f.closed = true
	return nil
}

// covered reports whether rec's frame lies in the synced prefix.
func (f *heldFile) covered(rec []byte) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return bytes.Contains(f.data[:f.synced], rec)
}

func (f *heldFile) counts() (writes, syncs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes, f.syncs
}

// groupRecord is the key and frame of test record i.
func groupRecord(i int) (key, frame []byte) {
	key = []byte(fmt.Sprintf(`{"k":%d}`, i))
	frame = appendFrame(nil, ftCheckpoint, marshalMsg(checkpointRecord{
		Type: uint8(ftRatioChunk), Key: key, Result: []byte(`{}`)}))
	return key, frame
}

// startAppend appends record i on its own goroutine; the channel yields
// its result.
func startAppend(l *checkpointLog, i int) <-chan error {
	done := make(chan error, 1)
	key, _ := groupRecord(i)
	go func() { done <- l.append(ftRatioChunk, key, []byte(`{}`)) }()
	return done
}

// waitQueued spins until the given records, and no others, wait in the
// log's filling group.
func waitQueued(l *checkpointLog, records ...int) {
	want := 0
	for _, i := range records {
		_, frame := groupRecord(i)
		want += len(frame)
	}
	for {
		l.mu.Lock()
		q := 0
		if l.fill != nil {
			q = len(l.fill.buf)
		}
		l.mu.Unlock()
		if q == want {
			return
		}
		runtime.Gosched()
	}
}

// returned reports whether any of the appends has returned yet.
func returned(dones []<-chan error) bool {
	for _, d := range dones {
		select {
		case <-d:
			return true
		default:
		}
	}
	return false
}

// TestCheckpointGroupCommit: while one Sync is held, 7 more appends queue;
// none returns before a Sync covers its record, and the 7 complete with
// exactly one more Write and one more Sync.
func TestCheckpointGroupCommit(t *testing.T) {
	f := newHeldFile()
	l := newCheckpointLog(f)
	first := startAppend(l, 0)
	<-f.entered
	var dones []<-chan error
	for i := 1; i <= 7; i++ {
		dones = append(dones, startAppend(l, i))
	}
	waitQueued(l, 1, 2, 3, 4, 5, 6, 7)
	if returned(append(dones, first)) {
		t.Fatal("an append returned while its Sync was held")
	}
	f.release <- nil
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if _, rec := groupRecord(0); !f.covered(rec) {
		t.Error("record 0 returned before a Sync covered it")
	}
	<-f.entered // the queued group's one Sync
	if returned(dones) {
		t.Fatal("a queued append returned before its group's Sync completed")
	}
	f.release <- nil
	for i, d := range dones {
		if err := <-d; err != nil {
			t.Fatalf("append %d: %v", i+1, err)
		}
		if _, rec := groupRecord(i + 1); !f.covered(rec) {
			t.Errorf("record %d returned before a Sync covered it", i+1)
		}
	}
	if w, s := f.counts(); w != 2 || s != 2 {
		t.Errorf("8 appends took %d writes and %d syncs, want 2 and 2", w, s)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointGroupSyncError: a failed Sync fails every append of its
// group, and the next append commits.
func TestCheckpointGroupSyncError(t *testing.T) {
	f := newHeldFile()
	l := newCheckpointLog(f)
	first := startAppend(l, 0)
	<-f.entered
	var dones []<-chan error
	for i := 1; i <= 3; i++ {
		dones = append(dones, startAppend(l, i))
	}
	waitQueued(l, 1, 2, 3)
	f.release <- nil
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	<-f.entered
	boom := errors.New("disk gone")
	f.release <- boom
	for i, d := range dones {
		if err := <-d; !errors.Is(err, boom) {
			t.Errorf("append %d of the failed group = %v, want %v", i+1, err, boom)
		}
	}
	next := startAppend(l, 4)
	<-f.entered
	f.release <- nil
	if err := <-next; err != nil {
		t.Fatalf("append after a failed group: %v", err)
	}
	if _, rec := groupRecord(4); !f.covered(rec) {
		t.Error("record 4 returned before a Sync covered it")
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointGroupCloseWaits: close waits for the group in flight and
// for the records queued behind it, and only then closes the file.
func TestCheckpointGroupCloseWaits(t *testing.T) {
	f := newHeldFile()
	l := newCheckpointLog(f)
	first := startAppend(l, 0)
	<-f.entered
	queued := startAppend(l, 1)
	waitQueued(l, 1)
	closed := make(chan error, 1)
	var closing atomic.Bool
	go func() {
		closing.Store(true)
		closed <- l.close()
	}()
	// Give close every chance to reach the file while the Sync is held;
	// a close that does not wait for the group then trips closeInSync.
	for !closing.Load() {
		runtime.Gosched()
	}
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	f.release <- nil
	<-f.entered
	f.release <- nil
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.closed || f.closeInSync {
		t.Errorf("close: closed=%v, during a Sync=%v; want closed after every Sync", f.closed, f.closeInSync)
	}
	if err := l.append(ftRatioChunk, []byte(`{"k":9}`), []byte(`{}`)); !errors.Is(err, os.ErrClosed) {
		t.Errorf("append after close = %v, want os.ErrClosed", err)
	}
}

// TestCheckpointGroupConcurrentAppends: 32 appenders share one log file;
// after close, a reopen replays every record exactly once.
func TestCheckpointGroupConcurrentAppends(t *testing.T) {
	const appenders, each = 32, 4
	path := t.TempDir() + "/log.qswf"
	l, _, err := openCheckpointLog(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, appenders*each)
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				key, _ := groupRecord(a*each + j)
				errs <- l.append(ftRatioChunk, key, []byte(`{}`))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for r := bytes.NewReader(data); r.Len() > 0; {
		ft, payload, _, err := readFrame(r)
		if err != nil || ft != ftCheckpoint {
			t.Fatalf("frame %d: type %v, %v", len(seen), ft, err)
		}
		var rec checkpointRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatal(err)
		}
		seen[string(rec.Key)]++
	}
	for i := 0; i < appenders*each; i++ {
		if key, _ := groupRecord(i); seen[string(key)] != 1 {
			t.Errorf("record %s replayed %d times, want once", key, seen[string(key)])
		}
	}
	if len(seen) != appenders*each {
		t.Errorf("log holds %d distinct records, want %d", len(seen), appenders*each)
	}
	l2, cache, err := openCheckpointLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.close()
	if len(cache) != appenders*each {
		t.Errorf("reopened cache has %d records, want %d", len(cache), appenders*each)
	}
}
