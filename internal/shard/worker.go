package shard

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"qswitch/internal/obs"
	"qswitch/internal/shard/faultinject"
)

// ServeOptions tunes a worker's serve loop.
type ServeOptions struct {
	// Chaos injects deterministic faults per chunk request; nil disables
	// fault injection.
	Chaos *faultinject.Injector
	// HeartbeatEvery is the heartbeat period while a chunk executes
	// (default 250ms; the coordinator's HeartbeatTimeout should be a
	// comfortable multiple).
	HeartbeatEvery time.Duration
	// HangFor bounds the Hang fault's stall before the process exits, so a
	// hung worker the supervisor cannot kill (TCP mode) does not leak
	// forever (default 10 minutes).
	HangFor time.Duration
	// Exit replaces os.Exit for the Kill and Hang faults (tests only).
	Exit func(code int)
	// Logf receives serve-loop diagnostics; nil discards them.
	Logf func(format string, args ...any)
	// Metrics, when set, receives the worker-side counters
	// (qswitch_worker_chunks_total, _units_total, _chunk_seconds) — the
	// registry a qswitchctl -serve -metrics-addr endpoint serves.
	Metrics *obs.Registry
}

func (o ServeOptions) heartbeatEvery() time.Duration {
	if o.HeartbeatEvery > 0 {
		return o.HeartbeatEvery
	}
	return 250 * time.Millisecond
}

func (o ServeOptions) hangFor() time.Duration {
	if o.HangFor > 0 {
		return o.HangFor
	}
	return 10 * time.Minute
}

func (o ServeOptions) exit(code int) {
	if o.Exit != nil {
		o.Exit(code)
		return
	}
	os.Exit(code)
}

func (o ServeOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// ServeStdio serves the worker protocol over stdin/stdout — the transport
// a coordinator-spawned worker (qswitchctl -serve) uses.
func ServeStdio(opts ServeOptions) error {
	return Serve(os.Stdin, os.Stdout, opts)
}

// ServeTCP accepts connections and serves each in its own goroutine until
// the listener closes. Chaos kills still terminate the whole process —
// that is the point of the fault.
func ServeTCP(ln net.Listener, opts ServeOptions) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return err
		}
		go func() {
			defer conn.Close()
			if err := Serve(conn, conn, opts); err != nil {
				opts.logf("shard: conn %v: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// Serve runs one worker protocol session: hello handshake, then a loop of
// chunk requests, each answered with a result or chunk-error frame while
// heartbeats flow. It returns nil when the peer shuts the session down
// (shutdown frame or clean EOF) and the transport error otherwise.
//
// The executor persists across the whole session, so resolved policy
// fleets and judges stay warm between chunks from the same coordinator.
func Serve(r io.Reader, w io.Writer, opts ServeOptions) error {
	br := bufio.NewReader(r)
	bw := bufio.NewWriter(w)
	var wmu sync.Mutex
	// ver is the negotiated session version: ProtocolVersion until the
	// hello handshake proves the peer older. It is written only from the
	// serve loop before any chunk runs, so the heartbeat goroutine reads
	// it race-free.
	ver := byte(ProtocolVersion)
	writeRaw := func(frame []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		if _, err := bw.Write(frame); err != nil {
			return err
		}
		return bw.Flush()
	}
	write := func(ft frameType, payload []byte) error {
		return writeRaw(appendFrameV(nil, ver, ft, payload))
	}

	tel := &workerTelemetry{
		tr:           &statsTracker{},
		chunks:       opts.Metrics.Counter(MetricWorkerChunks),
		units:        opts.Metrics.Counter(MetricWorkerUnits),
		chunkSeconds: opts.Metrics.Histogram(MetricWorkerChunkSeconds, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60),
	}
	exec := NewExecutor()
	for {
		ft, payload, _, err := readFrame(br)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch ft {
		case ftHello:
			var hello helloMsg
			if err := json.Unmarshal(payload, &hello); err != nil {
				return fmt.Errorf("shard: bad hello: %w", err)
			}
			if hello.Version < MinProtocolVersion || hello.Version > ProtocolVersion {
				return fmt.Errorf("shard: peer protocol version %d, want %d..%d", hello.Version, MinProtocolVersion, ProtocolVersion)
			}
			// Frame the whole session (this ack included) at the peer's
			// version; v1 peers reject anything newer.
			ver = byte(hello.Version)
			if err := write(ftHelloAck, marshalMsg(helloMsg{Version: hello.Version, PID: os.Getpid()})); err != nil {
				return err
			}
		case ftShutdown:
			return nil
		case ftRatioChunk, ftHuntChunk:
			if err := serveChunk(exec, ft, payload, opts, tel, ver, write, writeRaw); err != nil {
				return err
			}
		case ftHeartbeat:
			// Peers do not heartbeat toward workers; ignore.
		default:
			return fmt.Errorf("shard: unexpected frame type %d", ft)
		}
	}
}

// workerTelemetry bundles one serve session's stats tracker with the
// optional registry-backed counters (nil-safe when ServeOptions.Metrics
// is unset).
type workerTelemetry struct {
	tr           *statsTracker
	chunks       *obs.Counter
	units        *obs.Counter
	chunkSeconds *obs.Histogram
}

// serveChunk executes one chunk request, applying the chaos plan drawn
// for it and heartbeating while the evaluation runs. On v2 sessions the
// heartbeats carry the session's WorkerStats so the coordinator can tell
// a slow worker from a dead one *and* see how fast it is going.
func serveChunk(exec *Executor, ft frameType, payload []byte, opts ServeOptions,
	tel *workerTelemetry, ver byte,
	write func(frameType, []byte) error, writeRaw func([]byte) error) error {
	v2 := ver >= 2
	plan := opts.Chaos.Next()
	switch plan.Action {
	case faultinject.Kill:
		opts.logf("shard: chaos kill")
		opts.exit(3)
		return fmt.Errorf("shard: chaos kill did not exit")
	case faultinject.Hang:
		// No heartbeats: the supervisor's heartbeat timeout must fire. The
		// bounded stall keeps unkillable (TCP) workers from leaking forever.
		opts.logf("shard: chaos hang")
		time.Sleep(opts.hangFor())
		opts.exit(4)
		return fmt.Errorf("shard: chaos hang did not exit")
	case faultinject.Delay:
		opts.logf("shard: chaos delay %v", plan.Delay)
		time.Sleep(plan.Delay)
	}

	// Heartbeat while the chunk executes so slow chunks are distinguishable
	// from dead workers.
	stop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(opts.heartbeatEvery())
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				var stats []byte
				if v2 {
					stats = marshalMsg(tel.tr.snapshot())
				}
				if err := write(ftHeartbeat, stats); err != nil {
					return
				}
			}
		}
	}()

	t0 := time.Now()
	resFT, resPayload, units := executeChunk(exec, ft, payload)
	elapsed := time.Since(t0)
	close(stop)
	hbWG.Wait()
	tel.tr.record(units, elapsed)
	tel.chunks.Inc()
	tel.units.Add(units)
	tel.chunkSeconds.Observe(elapsed.Seconds())

	frame := appendFrameV(nil, ver, resFT, resPayload)
	if plan.Action == faultinject.Corrupt {
		// Flip one payload bit after the CRC was computed: the receiver's
		// checksum check must reject the frame.
		opts.logf("shard: chaos corrupt")
		if n := len(frame); n > 0 {
			bit := plan.CorruptBit % (n * 8)
			frame[bit/8] ^= 1 << (bit % 8)
		}
	}
	return writeRaw(frame)
}

// executeChunk decodes and runs one chunk, mapping deterministic failures
// to a chunk-error frame. units reports the work done — seeds for ratio
// chunks, restarts for hunt chunks, 0 on failure — feeding the telemetry
// trackers.
func executeChunk(exec *Executor, ft frameType, payload []byte) (_ frameType, _ []byte, units int64) {
	fail := func(err error) (frameType, []byte, int64) {
		return ftChunkError, marshalMsg(chunkErrorMsg{Msg: err.Error()}), 0
	}
	switch ft {
	case ftRatioChunk:
		var msg ratioChunkMsg
		if err := json.Unmarshal(payload, &msg); err != nil {
			return fail(fmt.Errorf("shard: bad ratio chunk spec: %w", err))
		}
		res, err := exec.RatioChunk(&msg)
		if err != nil {
			return fail(err)
		}
		return ftResult, marshalMsg(res), int64(msg.K1 - msg.K0)
	default:
		var msg huntChunkMsg
		if err := json.Unmarshal(payload, &msg); err != nil {
			return fail(fmt.Errorf("shard: bad hunt chunk spec: %w", err))
		}
		res, err := exec.HuntChunk(&msg)
		if err != nil {
			return fail(err)
		}
		return ftResult, marshalMsg(res), int64(msg.R1 - msg.R0)
	}
}
