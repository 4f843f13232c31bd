package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"qswitch/internal/adversary"
	"qswitch/internal/obs"
	"qswitch/internal/ratio"
	"qswitch/internal/switchsim"
)

// ErrClosed is returned for chunks submitted to a closed coordinator.
var ErrClosed = errors.New("shard: coordinator closed")

// WorkerSpec names one worker slot: either a command to spawn (stdio
// protocol over its pipes) or a TCP address to dial. Exactly one of Cmd
// and Addr must be set.
type WorkerSpec struct {
	// Cmd spawns a worker subprocess speaking the stdio protocol, e.g.
	// {"qswitchctl", "-serve"} or
	// {"qswitchctl", "-serve", "-chaos", "seed=1,kill=0.1"}.
	Cmd []string
	// Env appends extra environment variables ("K=V") to a spawned
	// worker's inherited environment.
	Env []string
	// Addr dials an already-running qswitchctl -serve -listen worker.
	Addr string
}

// CoordinatorOptions tunes supervision, retry and checkpointing.
type CoordinatorOptions struct {
	// Workers are the worker slots to supervise. With none, every chunk
	// executes in process.
	Workers []WorkerSpec
	// ChunkTimeout bounds one chunk attempt end to end (default 2m).
	ChunkTimeout time.Duration
	// HeartbeatTimeout bounds the silence between worker frames during an
	// attempt; a worker that stops heartbeating is presumed dead and its
	// chunk is retried elsewhere (default 10s).
	HeartbeatTimeout time.Duration
	// MaxAttempts bounds how many times a chunk is dispatched before its
	// infrastructure failure is reported (default 4).
	MaxAttempts int
	// RetryBase and RetryMax bound the exponential backoff between a
	// chunk's attempts (defaults 50ms and 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// MaxRespawns bounds how many times a worker slot is restarted after
	// connection failures before the slot is excluded (default 3).
	MaxRespawns int
	// CheckpointPath enables the crash-safe completion log: completed
	// chunks are appended, fsync'd before the chunk is reported done, and
	// never re-executed, including by a coordinator restarted over the
	// same path. Chunks that complete while an fsync is in flight are
	// group-committed: one write and one fsync cover them all.
	CheckpointPath string
	// Logf receives supervision diagnostics; nil discards them.
	Logf func(format string, args ...any)
	// Metrics, when set, receives the per-slot supervision counters
	// (qswitch_shard_worker_*{worker="i"}) a qswitchctl -metrics-addr
	// endpoint serves alongside the in-process probe families.
	Metrics *obs.Registry
}

func (o CoordinatorOptions) chunkTimeout() time.Duration {
	if o.ChunkTimeout > 0 {
		return o.ChunkTimeout
	}
	return 2 * time.Minute
}

func (o CoordinatorOptions) heartbeatTimeout() time.Duration {
	if o.HeartbeatTimeout > 0 {
		return o.HeartbeatTimeout
	}
	return 10 * time.Second
}

func (o CoordinatorOptions) maxAttempts() int {
	if o.MaxAttempts > 0 {
		return o.MaxAttempts
	}
	return 4
}

func (o CoordinatorOptions) retryBase() time.Duration {
	if o.RetryBase > 0 {
		return o.RetryBase
	}
	return 50 * time.Millisecond
}

func (o CoordinatorOptions) retryMax() time.Duration {
	if o.RetryMax > 0 {
		return o.RetryMax
	}
	return 2 * time.Second
}

func (o CoordinatorOptions) maxRespawns() int {
	if o.MaxRespawns > 0 {
		return o.MaxRespawns
	}
	return 3
}

// CoordinatorStats counts supervision events; read them with Stats.
type CoordinatorStats struct {
	// ChunksExecuted counts chunks completed by a worker or locally.
	ChunksExecuted int64
	// CheckpointHits counts chunks answered from the checkpoint log
	// without execution.
	CheckpointHits int64
	// Retries counts chunk attempts that failed at the transport level and
	// were requeued.
	Retries int64
	// Respawns counts worker reconnect/restart attempts.
	Respawns int64
	// Excluded counts worker slots given up on.
	Excluded int64
	// LocalChunks counts chunks executed by the in-process fallback.
	LocalChunks int64
}

// Coordinator shards ratio estimations and adversary hunts over a fleet
// of workers, surviving worker crashes, hangs and corrupted
// responses (bounded-backoff retries against deterministic chunks), its
// own crashes (fsync'd checkpoint log), and total worker loss (in-process
// fallback). It implements ratio.ChunkService, so ratio.RunSharded and
// experiments.Options.Shard plug it straight into the estimation
// pipeline; results are byte-identical to the in-process backends no
// matter what faults occurred. Safe for concurrent use.
type Coordinator struct {
	opts CoordinatorOptions

	jobs chan *job
	done chan struct{}
	wg   sync.WaitGroup

	ckpt    *checkpointLog
	cacheMu sync.Mutex
	cache   map[string][]byte

	health []*workerHealthState

	active    atomic.Int64 // worker slots not yet excluded
	localOnce sync.Once
	closeOnce sync.Once

	stats struct {
		executed, ckptHits, retries, respawns, excluded, local atomic.Int64
	}
}

// job is one chunk dispatch: spec payload in, result payload (or a
// terminal error) out on resp.
type job struct {
	ft       frameType
	payload  []byte
	attempts int
	resp     chan jobResult
}

type jobResult struct {
	payload []byte
	err     error
}

// NewCoordinator starts the worker supervisors (and the checkpoint log,
// when configured) and returns a serving coordinator. Workers that cannot
// be reached are retried with backoff and eventually excluded; if every
// slot is excluded — or none was configured — chunks execute in process,
// so the service degrades gracefully instead of failing.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	c := &Coordinator{
		opts:  opts,
		jobs:  make(chan *job),
		done:  make(chan struct{}),
		cache: map[string][]byte{},
	}
	for _, ws := range opts.Workers {
		if (len(ws.Cmd) == 0) == (ws.Addr == "") {
			return nil, fmt.Errorf("shard: worker spec must set exactly one of Cmd and Addr")
		}
	}
	if opts.CheckpointPath != "" {
		ckpt, cache, err := openCheckpointLog(opts.CheckpointPath)
		if err != nil {
			return nil, err
		}
		c.ckpt = ckpt
		c.cache = cache
	}
	c.active.Store(int64(len(opts.Workers)))
	if len(opts.Workers) == 0 {
		c.startLocal()
	}
	c.health = make([]*workerHealthState, len(opts.Workers))
	for i, ws := range opts.Workers {
		c.health[i] = &workerHealthState{h: WorkerHealth{Worker: i, State: "connecting"}, settled: make(chan struct{})}
		h := &workerHandle{c: c, spec: ws, idx: i, hs: c.health[i]}
		if reg := opts.Metrics; reg != nil {
			label := fmt.Sprintf(`{worker="%d"}`, i)
			h.mChunks = reg.Counter(MetricShardWorkerChunks + label)
			h.mRetries = reg.Counter(MetricShardWorkerRetries + label)
			h.mRespawns = reg.Counter(MetricShardWorkerRespawns + label)
			h.mUnitsPerSec = reg.FloatGauge(MetricShardWorkerUnitsPerSec + label)
			h.mLastChunkMs = reg.FloatGauge(MetricShardWorkerLastChunkMs + label)
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			h.loop()
		}()
	}
	return c, nil
}

// Health snapshots the per-worker supervision table: one row per
// configured worker slot, indexed by slot. The rows combine what the
// coordinator observes (state, chunks done, retries, respawns) with what
// each worker self-reports in its heartbeats (WorkerStats).
func (c *Coordinator) Health() []WorkerHealth {
	out := make([]WorkerHealth, len(c.health))
	for i, hs := range c.health {
		out[i] = hs.snapshot()
	}
	return out
}

// Close stops supervision, tears down spawned workers and closes the
// checkpoint log. In-flight chunks receive ErrClosed.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	c.wg.Wait()
	if c.ckpt != nil {
		return c.ckpt.close()
	}
	return nil
}

// Stats snapshots the supervision counters.
func (c *Coordinator) Stats() CoordinatorStats {
	return CoordinatorStats{
		ChunksExecuted: c.stats.executed.Load(),
		CheckpointHits: c.stats.ckptHits.Load(),
		Retries:        c.stats.retries.Load(),
		Respawns:       c.stats.respawns.Load(),
		Excluded:       c.stats.excluded.Load(),
		LocalChunks:    c.stats.local.Load(),
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// RatioChunk implements ratio.ChunkService: it executes (or recalls from
// the checkpoint) one seed-range chunk.
func (c *Coordinator) RatioChunk(ctx context.Context, req ratio.ChunkRequest) ([]ratio.SeedOutcome, error) {
	msg, err := encodeRatioChunk(req)
	if err != nil {
		return nil, err
	}
	resPayload, err := c.execute(ctx, ftRatioChunk, marshalMsg(msg))
	if err != nil {
		return nil, err
	}
	var res ratioResultMsg
	if err := json.Unmarshal(resPayload, &res); err != nil {
		return nil, fmt.Errorf("shard: bad chunk result: %w", err)
	}
	if len(res.Seeds) != msg.K1-msg.K0 {
		return nil, fmt.Errorf("shard: chunk result has %d seeds, want %d", len(res.Seeds), msg.K1-msg.K0)
	}
	return decodeOutcomes(&res), nil
}

// HuntRequest names a shardable adversary hunt: the policy under attack
// and the judge scoring it as registry specs, plus the search space. The
// restart budget in Search.Restarts is what Hunt() shards.
type HuntRequest struct {
	Cfg      switchsim.Config
	Crossbar bool
	Policy   string
	Judge    string
	Search   adversary.SearchOptions
}

// Hunt runs the hunt's restarts in chunks of `chunk` (<= 0 selects 4)
// across the workers and merges the per-chunk bests deterministically;
// the result is byte-identical to adversary.HuntRange over all restarts
// in one process, regardless of chunking, worker count or faults.
func (c *Coordinator) Hunt(ctx context.Context, req HuntRequest, chunk int) (adversary.HuntResult, error) {
	restarts := req.Search.Restarts
	if restarts < 1 {
		restarts = 1
	}
	if chunk <= 0 {
		chunk = 4
	}
	if chunk > restarts {
		chunk = restarts
	}
	nChunks := (restarts + chunk - 1) / chunk
	results := make([]*huntResultMsg, nChunks)
	errs := make([]error, nChunks)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < nChunks; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg := &huntChunkMsg{
				Cfg: req.Cfg, Crossbar: req.Crossbar, Policy: req.Policy, Judge: req.Judge,
				Search: req.Search, R0: i * chunk, R1: min(restarts, (i+1)*chunk),
			}
			payload, err := c.execute(cctx, ftHuntChunk, marshalMsg(msg))
			if err != nil {
				errs[i] = err
				cancel()
				return
			}
			var res huntResultMsg
			if err := json.Unmarshal(payload, &res); err != nil {
				errs[i] = fmt.Errorf("shard: bad hunt result: %w", err)
				cancel()
				return
			}
			results[i] = &res
		}()
	}
	wg.Wait()
	var firstAny error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if firstAny == nil {
			firstAny = fmt.Errorf("hunt chunk %d: %w", i, err)
		}
		if !errors.Is(err, context.Canceled) {
			return adversary.HuntResult{}, fmt.Errorf("hunt chunk %d: %w", i, err)
		}
	}
	if firstAny != nil {
		if err := ctx.Err(); err != nil {
			return adversary.HuntResult{}, err
		}
		return adversary.HuntResult{}, firstAny
	}
	best := adversary.HuntResult{Ratio: -1, Restart: -1}
	for _, r := range results {
		best = adversary.MergeHunts(best, adversary.HuntResult{
			Seq: r.Seq, Ratio: r.Ratio, Restart: r.Restart,
			Accepted: r.Accepted, Tried: r.Tried,
		})
	}
	return best, nil
}

// execute answers one chunk: from the checkpoint cache when possible,
// otherwise by dispatching it (with retries) and committing the verified
// result to the checkpoint before returning it.
func (c *Coordinator) execute(ctx context.Context, ft frameType, payload []byte) ([]byte, error) {
	key := ckptKey(ft, payload)
	c.cacheMu.Lock()
	cached, ok := c.cache[key]
	c.cacheMu.Unlock()
	if ok {
		c.stats.ckptHits.Add(1)
		return cached, nil
	}

	jb := &job{ft: ft, payload: payload, resp: make(chan jobResult, 1)}
	select {
	case c.jobs <- jb:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.done:
		return nil, ErrClosed
	}
	select {
	case res := <-jb.resp:
		if res.err != nil {
			return nil, res.err
		}
		c.commit(ft, key, payload, res.payload)
		c.stats.executed.Add(1)
		return res.payload, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// commit stores a verified chunk result in the cache and checkpoint log.
func (c *Coordinator) commit(ft frameType, key string, spec, result []byte) {
	c.cacheMu.Lock()
	c.cache[key] = result
	c.cacheMu.Unlock()
	if c.ckpt != nil {
		if err := c.ckpt.append(ft, spec, result); err != nil {
			c.logf("shard: checkpoint append failed: %v", err)
		}
	}
}

// requeue schedules a failed attempt's retry with exponential backoff, or
// fails the chunk once its attempt budget is spent.
func (c *Coordinator) requeue(jb *job, cause error) {
	jb.attempts++
	c.stats.retries.Add(1)
	if jb.attempts >= c.opts.maxAttempts() {
		jb.resp <- jobResult{err: fmt.Errorf("shard: chunk failed after %d attempts: %w", jb.attempts, cause)}
		return
	}
	backoff := c.opts.retryBase() << (jb.attempts - 1)
	if backoff > c.opts.retryMax() {
		backoff = c.opts.retryMax()
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTimer(backoff)
		defer t.Stop()
		select {
		case <-t.C:
		case <-c.done:
			jb.resp <- jobResult{err: ErrClosed}
			return
		}
		select {
		case c.jobs <- jb:
		case <-c.done:
			jb.resp <- jobResult{err: ErrClosed}
		}
	}()
}

// startLocal starts the in-process drain loop: the graceful-degradation
// path when no worker slot is serving. The local executor round-trips
// every chunk through the same encoded spec a worker would receive, so
// local execution is behaviorally identical to remote.
func (c *Coordinator) startLocal() {
	c.localOnce.Do(func() {
		c.logf("shard: no reachable workers; executing chunks in process")
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			exec := NewExecutor()
			for {
				select {
				case <-c.done:
					return
				case jb := <-c.jobs:
					c.stats.local.Add(1)
					ft, payload, _ := executeChunk(exec, jb.ft, jb.payload)
					if ft == ftChunkError {
						var msg chunkErrorMsg
						if err := json.Unmarshal(payload, &msg); err != nil {
							jb.resp <- jobResult{err: fmt.Errorf("shard: bad local chunk error: %w", err)}
							continue
						}
						jb.resp <- jobResult{err: errors.New(msg.Msg)}
						continue
					}
					jb.resp <- jobResult{payload: payload}
				}
			}
		}()
	})
}

// retire removes a worker slot from the active set, starting the local
// fallback when the last slot retires.
func (c *Coordinator) retire() {
	c.stats.excluded.Add(1)
	if c.active.Add(-1) == 0 {
		c.startLocal()
	}
}

// recvFrame is one frame (or transport error) from a worker's reader
// goroutine.
type recvFrame struct {
	ft      frameType
	payload []byte
	err     error
}

// workerHandle supervises one worker slot across its spawn/connect,
// serve, crash and respawn lifecycle.
type workerHandle struct {
	c        *Coordinator
	spec     WorkerSpec
	idx      int
	respawns int
	hs       *workerHealthState

	// Per-slot labeled metrics; nil (and no-op) without
	// CoordinatorOptions.Metrics.
	mChunks      *obs.Counter
	mRetries     *obs.Counter
	mRespawns    *obs.Counter
	mUnitsPerSec *obs.FloatGauge
	mLastChunkMs *obs.FloatGauge

	cmd    *exec.Cmd
	conn   io.Closer
	wr     *bufio.Writer
	frames chan recvFrame
}

// noteRespawn records one reconnect/restart attempt everywhere it is
// visible: the coordinator stats, the health table, the metrics.
func (h *workerHandle) noteRespawn() {
	h.respawns++
	h.c.stats.respawns.Add(1)
	h.mRespawns.Inc()
	if h.hs != nil {
		h.hs.mu.Lock()
		h.hs.h.Respawns++
		h.hs.mu.Unlock()
	}
}

// noteBeat records a heartbeat, decoding the WorkerStats payload v2
// workers attach. Undecodable stats are ignored — telemetry is advisory
// and must never poison a healthy stream.
func (h *workerHandle) noteBeat(payload []byte) {
	if h.hs == nil {
		return
	}
	h.hs.mu.Lock()
	h.hs.h.LastBeat = time.Now()
	if len(payload) > 0 {
		var stats WorkerStats
		if err := json.Unmarshal(payload, &stats); err == nil {
			h.hs.h.Stats = stats
			h.mUnitsPerSec.Set(stats.UnitsPerSec)
			h.mLastChunkMs.Set(stats.LastChunkMs)
		}
	}
	h.hs.mu.Unlock()
}

// loop serves jobs on the worker until the coordinator closes or the slot
// exhausts its respawn budget.
func (h *workerHandle) loop() {
	defer h.teardown()
	for {
		if h.frames == nil {
			if h.respawns > h.c.opts.maxRespawns() {
				h.c.logf("shard: worker %d: excluded after %d respawns", h.idx, h.respawns-1)
				h.hs.setState("excluded")
				h.c.retire()
				return
			}
			if h.respawns > 0 {
				backoff := h.c.opts.retryBase() << (h.respawns - 1)
				if backoff > h.c.opts.retryMax() {
					backoff = h.c.opts.retryMax()
				}
				select {
				case <-time.After(backoff):
				case <-h.c.done:
					return
				}
			}
			if err := h.connect(); err != nil {
				h.noteRespawn()
				h.c.logf("shard: worker %d: connect: %v", h.idx, err)
				continue
			}
			h.hs.setState("serving")
		}
		select {
		case <-h.c.done:
			return
		case jb := <-h.c.jobs:
			payload, err, terminal := h.do(jb)
			if err != nil && !terminal {
				// Transport-level failure: the connection is unusable and the
				// chunk is retried (it is deterministic, so a retry is safe).
				h.c.logf("shard: worker %d: chunk attempt failed: %v", h.idx, err)
				h.teardown()
				h.hs.setState("connecting")
				h.noteRespawn()
				h.mRetries.Inc()
				if h.hs != nil {
					h.hs.mu.Lock()
					h.hs.h.Retries++
					h.hs.mu.Unlock()
				}
				h.c.requeue(jb, err)
				continue
			}
			if err == nil {
				h.mChunks.Inc()
				if h.hs != nil {
					h.hs.mu.Lock()
					h.hs.h.ChunksDone++
					h.hs.mu.Unlock()
				}
			}
			jb.resp <- jobResult{payload: payload, err: err}
		}
	}
}

// connect spawns or dials the worker and completes the hello handshake.
func (h *workerHandle) connect() error {
	var r io.Reader
	if len(h.spec.Cmd) > 0 {
		cmd := exec.Command(h.spec.Cmd[0], h.spec.Cmd[1:]...)
		if len(h.spec.Env) > 0 {
			cmd.Env = append(os.Environ(), h.spec.Env...)
		}
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		h.cmd = cmd
		h.conn = stdin
		h.wr = bufio.NewWriter(stdin)
		r = stdout
	} else {
		conn, err := net.DialTimeout("tcp", h.spec.Addr, h.c.opts.heartbeatTimeout())
		if err != nil {
			return err
		}
		h.cmd = nil
		h.conn = conn
		h.wr = bufio.NewWriter(conn)
		r = conn
	}
	h.frames = make(chan recvFrame, 8)
	h.c.wg.Add(1)
	go func(frames chan<- recvFrame, r io.Reader) {
		defer h.c.wg.Done()
		br := bufio.NewReader(r)
		for {
			ft, payload, _, err := readFrame(br)
			if err != nil {
				frames <- recvFrame{err: err}
				close(frames)
				return
			}
			select {
			case frames <- recvFrame{ft: ft, payload: payload}:
			case <-h.c.done:
				close(frames)
				return
			}
		}
	}(h.frames, r)

	if err := h.send(ftHello, marshalMsg(helloMsg{Version: ProtocolVersion, PID: os.Getpid()})); err != nil {
		h.teardown()
		return err
	}
	select {
	case fr, ok := <-h.frames:
		if !ok || fr.err != nil {
			h.teardown()
			return fmt.Errorf("shard: handshake read: %v", fr.err)
		}
		if fr.ft != ftHelloAck {
			h.teardown()
			return fmt.Errorf("shard: handshake got frame type %d", fr.ft)
		}
	case <-time.After(h.c.opts.heartbeatTimeout()):
		h.teardown()
		return fmt.Errorf("shard: handshake timeout")
	case <-h.c.done:
		h.teardown()
		return ErrClosed
	}
	return nil
}

// send writes one frame to the worker.
func (h *workerHandle) send(ft frameType, payload []byte) error {
	if _, err := h.wr.Write(appendFrame(nil, ft, payload)); err != nil {
		return err
	}
	return h.wr.Flush()
}

// do runs one chunk attempt on the connected worker. terminal=true marks
// deterministic chunk failures (and successes); terminal=false marks
// transport failures whose chunk should be retried.
func (h *workerHandle) do(jb *job) (payload []byte, err error, terminal bool) {
	if err := h.send(jb.ft, jb.payload); err != nil {
		return nil, fmt.Errorf("shard: send chunk: %w", err), false
	}
	chunkTimer := time.NewTimer(h.c.opts.chunkTimeout())
	defer chunkTimer.Stop()
	hbTimer := time.NewTimer(h.c.opts.heartbeatTimeout())
	defer hbTimer.Stop()
	for {
		select {
		case fr, ok := <-h.frames:
			if !ok {
				return nil, fmt.Errorf("shard: worker connection closed mid-chunk"), false
			}
			if fr.err != nil {
				// Includes CRC mismatches from chaos-corrupted responses: the
				// result is discarded, never merged, and the chunk retried.
				return nil, fmt.Errorf("shard: worker stream: %w", fr.err), false
			}
			switch fr.ft {
			case ftHeartbeat:
				if !hbTimer.Stop() {
					<-hbTimer.C
				}
				hbTimer.Reset(h.c.opts.heartbeatTimeout())
				h.noteBeat(fr.payload)
			case ftResult:
				return fr.payload, nil, true
			case ftChunkError:
				var msg chunkErrorMsg
				if err := json.Unmarshal(fr.payload, &msg); err != nil {
					return nil, fmt.Errorf("shard: bad chunk error frame: %w", err), false
				}
				return nil, errors.New(msg.Msg), true
			default:
				return nil, fmt.Errorf("shard: unexpected frame type %d mid-chunk", fr.ft), false
			}
		case <-hbTimer.C:
			return nil, fmt.Errorf("shard: worker heartbeat timeout (%v)", h.c.opts.heartbeatTimeout()), false
		case <-chunkTimer.C:
			return nil, fmt.Errorf("shard: chunk timeout (%v)", h.c.opts.chunkTimeout()), false
		case <-h.c.done:
			return nil, ErrClosed, true
		}
	}
}

// teardown closes the connection and reaps a spawned worker process.
func (h *workerHandle) teardown() {
	if h.conn != nil {
		h.conn.Close()
		h.conn = nil
	}
	if h.cmd != nil {
		h.cmd.Process.Kill()
		h.cmd.Wait()
		h.cmd = nil
	}
	if h.frames != nil {
		// Drain so the reader goroutine can exit.
		go func(frames <-chan recvFrame) {
			for range frames {
			}
		}(h.frames)
		h.frames = nil
	}
	h.wr = nil
}
