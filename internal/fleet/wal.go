// Control-plane durability: an append-only write-ahead log of
// committed coordinator state, so a full control-plane restart —
// primary and every standby at once — resumes from the last committed
// (term, epoch) instead of being born again at epoch 0.
//
// Record framing is length+CRC: a fixed 8-byte header (little-endian
// payload length, IEEE CRC-32 of the payload) followed by the JSON
// payload. Each record is a full state snapshot — membership,
// assignment, and seed mutations all rewrite the whole (small) fleet
// view — which makes replay trivial (the last intact record wins) and
// compaction exact (rewrite the file as that one record). Replay is
// total over arbitrary byte soup: a torn write, truncated tail, or
// flipped bit invalidates only the records from the damage onward; the
// log is truncated back to the last intact frame and appending
// resumes there.
//
// Durability is batched: Append marks the log dirty and a background
// flusher fsyncs on an interval (default 5ms), advancing the durable
// (term, epoch) watermark that replicate frames carry as their commit
// field. Transitions that must not be lost (promotion, a restart's
// incarnation record) force a synchronous fsync.
package fleet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"safecross/internal/telemetry"
)

const (
	walHeaderLen = 8
	// walMaxRecord bounds one payload: a corrupt length header must
	// not make replay allocate gigabytes before the CRC can rule.
	walMaxRecord = 16 << 20
	// walCompactAt is the default log size that triggers compaction.
	walCompactAt = 1 << 20
	// walSyncEvery is the default fsync batching interval.
	walSyncEvery = 5 * time.Millisecond
)

// walOptions sizes a wal; zero fields take the defaults above.
type walOptions struct {
	SyncEvery time.Duration
	CompactAt int64
	Metrics   *telemetry.Registry
	Logger    *telemetry.Logger
}

type walMetrics struct {
	appends     *telemetry.Counter
	syncs       *telemetry.Counter
	compactions *telemetry.Counter
	replays     *telemetry.Counter
	tornRecords *telemetry.Counter
	errors      *telemetry.Counter
	size        *telemetry.Gauge
}

// wal is the coordinator's write-ahead log. All methods are safe for
// concurrent use; the coordinator calls them under its own lock, which
// is fine because the wal never calls back out.
type wal struct {
	path      string
	syncEvery time.Duration
	compactAt int64
	log       *telemetry.Logger
	metrics   walMetrics

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	mu       sync.Mutex
	f        *os.File
	size     int64
	last     fleetView
	haveLast bool
	dirty    bool
	// durable is the stamp of the last record an fsync has covered —
	// the commit watermark replicate frames advertise.
	durableTerm  int64
	durableEpoch int64
}

// openWAL opens (or creates) the log at path, replays it, and returns
// the last intact record (nil for a fresh or empty log). Damaged
// tails are truncated away and counted; replay never fails on content,
// only on real I/O errors.
func openWAL(path string, opts walOptions) (*wal, *fleetView, error) {
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = walSyncEvery
	}
	if opts.CompactAt <= 0 {
		opts.CompactAt = walCompactAt
	}
	reg := nopIfNil(opts.Metrics)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: open wal: %w", err)
	}
	w := &wal{
		path:      path,
		syncEvery: opts.SyncEvery,
		compactAt: opts.CompactAt,
		log:       opts.Logger,
		stop:      make(chan struct{}),
		f:         f,
		metrics: walMetrics{
			appends:     reg.Counter("fleet_wal_appends_total", "control-plane state records appended to the write-ahead log"),
			syncs:       reg.Counter("fleet_wal_syncs_total", "batched fsyncs of the write-ahead log"),
			compactions: reg.Counter("fleet_wal_compactions_total", "snapshot+truncate compactions of the write-ahead log"),
			replays:     reg.Counter("fleet_wal_replays_total", "coordinator starts that resumed state from a write-ahead log"),
			tornRecords: reg.Counter("fleet_wal_torn_records_total", "damaged trailing records dropped during replay (torn writes, truncated tails, CRC mismatches)"),
			errors:      reg.Counter("fleet_wal_errors_total", "write-ahead log I/O failures (durability degraded, serving continues)"),
			size:        reg.Gauge("fleet_wal_bytes", "current size of the write-ahead log"),
		},
	}
	rec, goodLen, torn, err := replayWAL(f)
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	if torn > 0 {
		w.metrics.tornRecords.Add(int64(torn))
		w.log.Warnf("fleet: wal %s: dropped %d damaged trailing record(s), resuming at offset %d", path, torn, goodLen)
	}
	if fi, err := f.Stat(); err == nil && fi.Size() != goodLen {
		if err := f.Truncate(goodLen); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("fleet: truncate damaged wal tail: %w", err)
		}
	}
	if _, err := f.Seek(goodLen, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("fleet: seek wal: %w", err)
	}
	w.size = goodLen
	w.metrics.size.Set(goodLen)
	if rec != nil {
		w.last, w.haveLast = *rec, true
		w.durableTerm, w.durableEpoch = rec.Term, rec.Epoch
		w.metrics.replays.Inc()
	}
	w.wg.Add(1)
	go w.flusher()
	return w, rec, nil
}

// replayWAL scans frames from the start of the log, returning the last
// intact record, the byte offset where intact data ends, and how many
// trailing records were abandoned as damaged. The scan stops at the
// FIRST bad frame: everything after a tear is unordered noise.
func replayWAL(r io.ReadSeeker) (rec *fleetView, goodLen int64, torn int, err error) {
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, 0, 0, fmt.Errorf("fleet: seek wal: %w", err)
	}
	var header [walHeaderLen]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			if err == io.EOF {
				return rec, goodLen, torn, nil // clean end
			}
			return rec, goodLen, torn + 1, nil // torn header
		}
		n := binary.LittleEndian.Uint32(header[:4])
		want := binary.LittleEndian.Uint32(header[4:])
		if n == 0 || n > walMaxRecord {
			return rec, goodLen, torn + 1, nil // insane length: corrupt header
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return rec, goodLen, torn + 1, nil // truncated payload
		}
		if crc32.ChecksumIEEE(payload) != want {
			return rec, goodLen, torn + 1, nil // bit rot / torn write
		}
		var r2 fleetView
		if err := json.Unmarshal(payload, &r2); err != nil {
			return rec, goodLen, torn + 1, nil // framed but unparseable
		}
		rec = &r2
		goodLen += walHeaderLen + int64(n)
	}
}

// Append writes one record. Failures degrade durability (counted and
// logged) but never stop the control plane: an in-memory coordinator
// is still better than none.
func (w *wal) Append(rec fleetView) {
	payload, err := json.Marshal(rec)
	if err != nil {
		w.metrics.errors.Inc()
		w.log.Warnf("fleet: wal append marshal: %v", err)
		return
	}
	frame := make([]byte, walHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[walHeaderLen:], payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return
	}
	if _, err := w.f.Write(frame); err != nil {
		w.metrics.errors.Inc()
		w.log.Warnf("fleet: wal append: %v", err)
		return
	}
	w.size += int64(len(frame))
	w.last, w.haveLast = rec, true
	w.dirty = true
	w.metrics.appends.Inc()
	w.metrics.size.Set(w.size)
	if w.size > w.compactAt {
		w.compactLocked()
	}
}

// Sync forces an fsync now, advancing the commit watermark to the
// last appended record. Used on transitions that must not sit in the
// batching window (promotion, incarnation records).
func (w *wal) Sync() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncLocked()
}

func (w *wal) syncLocked() {
	if !w.dirty || w.f == nil {
		return
	}
	if err := w.f.Sync(); err != nil {
		w.metrics.errors.Inc()
		w.log.Warnf("fleet: wal fsync: %v", err)
		return
	}
	w.dirty = false
	w.durableTerm, w.durableEpoch = w.last.Term, w.last.Epoch
	w.metrics.syncs.Inc()
}

// Durable returns the commit watermark: the stamp of the newest
// record an fsync has covered.
func (w *wal) Durable() (term, epoch int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durableTerm, w.durableEpoch
}

// compactLocked rewrites the log as a single snapshot record (the
// last state IS the whole truth — every record is a full snapshot) via
// write-temp, fsync, rename, so a crash mid-compaction leaves either
// the old log or the new one, never a hybrid. Callers hold w.mu.
func (w *wal) compactLocked() {
	if !w.haveLast {
		return
	}
	payload, err := json.Marshal(w.last)
	if err != nil {
		w.metrics.errors.Inc()
		return
	}
	frame := make([]byte, walHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[walHeaderLen:], payload)
	tmp := w.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		if _, err = f.Write(frame); err == nil {
			err = f.Sync()
		}
		if err != nil {
			_ = f.Close()
		}
	}
	if err == nil {
		err = os.Rename(tmp, w.path)
	}
	if err != nil {
		w.metrics.errors.Inc()
		w.log.Warnf("fleet: wal compaction: %v", err)
		_ = os.Remove(tmp)
		return
	}
	_ = w.f.Close()
	w.f = f
	w.size = int64(len(frame))
	w.dirty = false
	w.durableTerm, w.durableEpoch = w.last.Term, w.last.Epoch
	w.metrics.compactions.Inc()
	w.metrics.size.Set(w.size)
}

// flusher is the fsync batcher: every interval, one fsync covers all
// appends since the last.
func (w *wal) flusher() {
	defer w.wg.Done()
	tick := time.NewTicker(w.syncEvery)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
			w.Sync()
		}
	}
}

// Close syncs and closes the log.
func (w *wal) Close() error {
	w.once.Do(func() { close(w.stop) })
	w.wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncLocked()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
