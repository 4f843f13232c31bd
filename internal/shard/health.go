package shard

import (
	"sync"
	"time"
)

// Shard-tier metric names. The worker-side family is registered by a
// qswitchd serving with ServeOptions.Metrics; the per-slot family is
// registered (with a worker="i" label) by a coordinator created with
// CoordinatorOptions.Metrics.
const (
	MetricWorkerChunks       = "qswitch_worker_chunks_total"
	MetricWorkerUnits        = "qswitch_worker_units_total"
	MetricWorkerChunkSeconds = "qswitch_worker_chunk_seconds"

	MetricShardWorkerChunks      = "qswitch_shard_worker_chunks_total"
	MetricShardWorkerRetries     = "qswitch_shard_worker_retries_total"
	MetricShardWorkerRespawns    = "qswitch_shard_worker_respawns_total"
	MetricShardWorkerUnitsPerSec = "qswitch_shard_worker_units_per_sec"
	MetricShardWorkerLastChunkMs = "qswitch_shard_worker_last_chunk_ms"
)

// WorkerStats is the telemetry payload a protocol-v2 worker attaches to
// its heartbeat frames: cumulative work done this session plus the
// freshest throughput figures. Units are seeds for ratio chunks and
// restarts for hunt chunks, so UnitsPerSec is the worker's slots-driving
// rate regardless of chunk kind.
type WorkerStats struct {
	// Chunks counts chunk requests completed this session.
	Chunks int64 `json:"chunks"`
	// Units counts work units (seeds or restarts) completed this session.
	Units int64 `json:"units"`
	// UnitsPerSec is Units over the total busy time, 0 until the first
	// chunk completes.
	UnitsPerSec float64 `json:"unitsPerSec,omitempty"`
	// LastChunkMs is the wall-clock latency of the most recent chunk.
	LastChunkMs float64 `json:"lastChunkMs,omitempty"`
}

// statsTracker accumulates one worker session's WorkerStats. Heartbeats
// snapshot it concurrently with the serve loop recording into it.
type statsTracker struct {
	mu    sync.Mutex
	stats WorkerStats
	busy  time.Duration
}

func (t *statsTracker) record(units int64, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Chunks++
	t.stats.Units += units
	t.busy += d
	t.stats.LastChunkMs = float64(d) / float64(time.Millisecond)
	if s := t.busy.Seconds(); s > 0 {
		t.stats.UnitsPerSec = float64(t.stats.Units) / s
	}
}

func (t *statsTracker) snapshot() WorkerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// WorkerHealth is one worker slot's live supervision state, as seen by
// the coordinator; read it with Coordinator.Health.
type WorkerHealth struct {
	// Worker is the slot index into CoordinatorOptions.Workers.
	Worker int
	// State is "connecting" (not yet serving, or between respawns),
	// "serving", or "excluded" (respawn budget exhausted).
	State string
	// ChunksDone counts chunks this slot completed successfully.
	ChunksDone int64
	// Retries counts chunk attempts this slot failed at the transport
	// level (the chunks were requeued elsewhere).
	Retries int64
	// Respawns counts reconnect/restart attempts for this slot.
	Respawns int64
	// LastBeat is when the slot last heartbeat during a chunk (zero
	// before the first one).
	LastBeat time.Time
	// Stats is the worker's self-reported telemetry from its latest
	// heartbeat (zero for v1 workers, which send empty heartbeats).
	Stats WorkerStats
}

// workerHealthState is the coordinator-side mutable slot behind one
// WorkerHealth row.
type workerHealthState struct {
	mu      sync.Mutex
	h       WorkerHealth
	settle  sync.Once
	settled chan struct{} // closed when the slot first leaves "connecting"
}

func (s *workerHealthState) setState(state string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.h.State = state
	s.mu.Unlock()
	if state != "connecting" {
		s.settle.Do(func() { close(s.settled) })
	}
}

func (s *workerHealthState) snapshot() WorkerHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h
}
