package fleet

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"safecross/internal/telemetry"
)

// walFrame builds one length+CRC framed record from raw payload bytes,
// so tests can write both intact and deliberately damaged logs.
func walFrame(payload []byte) []byte {
	frame := make([]byte, walHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[walHeaderLen:], payload)
	return frame
}

func testRecord(term, epoch int64) fleetView {
	return fleetView{
		Term:    term,
		Epoch:   epoch,
		Primary: "127.0.0.1:7000",
		Seeds:   []string{"127.0.0.1:7000", "127.0.0.1:7001"},
		Keys:    []int{0, 1, 2},
		Owners:  map[int]string{0: "node-0", 1: "node-1", 2: "node-0"},
		Members: []viewMember{
			{Node: "node-0", Addr: "127.0.0.1:9000", State: "live"},
			{Node: "node-1", Addr: "127.0.0.1:9001", State: "dead"},
		},
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.wal")
	w, rec, err := openWAL(path, walOptions{})
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	if rec != nil {
		t.Fatalf("fresh log replayed a record: %+v", rec)
	}
	w.Append(testRecord(1, 1))
	w.Append(testRecord(1, 2))
	want := testRecord(2, 5)
	w.Append(want)
	w.Sync()
	if dt, de := w.Durable(); dt != 2 || de != 5 {
		t.Fatalf("durable watermark = (%d, %d), want (2, 5)", dt, de)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	reg := telemetry.NewRegistry()
	w2, rec2, err := openWAL(path, walOptions{Metrics: reg})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = w2.Close() }()
	if rec2 == nil {
		t.Fatal("reopen replayed nothing")
	}
	if rec2.Term != want.Term || rec2.Epoch != want.Epoch {
		t.Fatalf("replayed stamp (%d, %d), want (%d, %d)", rec2.Term, rec2.Epoch, want.Term, want.Epoch)
	}
	if rec2.Owners[1] != "node-1" || len(rec2.Members) != 2 || rec2.Members[1].State != "dead" {
		t.Fatalf("replayed record lost state: %+v", rec2)
	}
	snap := reg.Snapshot()
	if snap.Int("fleet_wal_replays_total") != 1 {
		t.Fatalf("fleet_wal_replays_total = %d, want 1", snap.Int("fleet_wal_replays_total"))
	}
	if dt, de := w2.Durable(); dt != 2 || de != 5 {
		t.Fatalf("reopened durable watermark = (%d, %d), want (2, 5)", dt, de)
	}
}

// TestWALTornTailRecovery simulates the crash-mid-write cases one at a
// time: garbage after the last frame, a truncated payload, a header
// whose length field is insane, and a payload with a flipped bit. In
// every case replay must surface the last INTACT record and truncate
// the file back to it, so the next append produces a clean log.
func TestWALTornTailRecovery(t *testing.T) {
	good1, err := json.Marshal(testRecord(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	good2, err := json.Marshal(testRecord(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	intact := append(append([]byte{}, walFrame(good1)...), walFrame(good2)...)

	flipped := walFrame(good2)
	flipped[walHeaderLen+3] ^= 0x40 // corrupt payload under a valid header

	insane := make([]byte, walHeaderLen)
	binary.LittleEndian.PutUint32(insane[:4], uint32(walMaxRecord+1))

	cases := []struct {
		name string
		data []byte
		want int64 // epoch of the record replay must surface
	}{
		{"garbage tail", append(append([]byte{}, intact...), "not a frame"...), 2},
		{"torn header", append(append([]byte{}, intact...), walFrame(good1)[:5]...), 2},
		{"truncated payload", append(append([]byte{}, walFrame(good1)...), walFrame(good2)[:walHeaderLen+4]...), 1},
		{"crc mismatch", append(append([]byte{}, walFrame(good1)...), flipped...), 1},
		{"insane length header", append(append([]byte{}, walFrame(good1)...), insane...), 1},
		{"all garbage", []byte("no frame ever started here"), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.wal")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			w, rec, err := openWAL(path, walOptions{Metrics: reg})
			if err != nil {
				t.Fatalf("openWAL on damaged log: %v", err)
			}
			if tc.want == 0 {
				if rec != nil {
					t.Fatalf("replayed a record from garbage: %+v", rec)
				}
			} else if rec == nil || rec.Epoch != tc.want {
				t.Fatalf("replayed %+v, want epoch %d", rec, tc.want)
			}
			if got := reg.Snapshot().Int("fleet_wal_torn_records_total"); got < 1 {
				t.Fatalf("fleet_wal_torn_records_total = %d, want >= 1", got)
			}
			// The damaged tail must be gone: append + reopen yields the
			// new record with no torn frames.
			w.Append(testRecord(9, 9))
			w.Sync()
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			reg2 := telemetry.NewRegistry()
			w2, rec2, err := openWAL(path, walOptions{Metrics: reg2})
			if err != nil {
				t.Fatalf("reopen after recovery: %v", err)
			}
			defer func() { _ = w2.Close() }()
			if rec2 == nil || rec2.Term != 9 || rec2.Epoch != 9 {
				t.Fatalf("post-recovery append lost: %+v", rec2)
			}
			if got := reg2.Snapshot().Int("fleet_wal_torn_records_total"); got != 0 {
				t.Fatalf("recovered log still torn: %d damaged record(s)", got)
			}
		})
	}
}

func TestWALCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.wal")
	reg := telemetry.NewRegistry()
	w, _, err := openWAL(path, walOptions{CompactAt: 2 << 10, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 200; i++ {
		w.Append(testRecord(1, i))
	}
	w.Sync()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 8<<10 {
		t.Fatalf("log never compacted: %d bytes after 200 appends with a 2KiB threshold", fi.Size())
	}
	if got := reg.Snapshot().Int("fleet_wal_compactions_total"); got < 1 {
		t.Fatalf("fleet_wal_compactions_total = %d, want >= 1", got)
	}
	w2, rec, err := openWAL(path, walOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w2.Close() }()
	if rec == nil || rec.Epoch != 200 {
		t.Fatalf("compaction lost the newest record: %+v", rec)
	}
}

// TestWALFlusherAdvancesWatermark checks the batched-durability path:
// an Append with no explicit Sync must still become durable within a
// few flush intervals.
func TestWALFlusherAdvancesWatermark(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flush.wal")
	w, _, err := openWAL(path, walOptions{SyncEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()
	w.Append(testRecord(3, 7))
	deadline := time.Now().Add(2 * time.Second)
	for {
		if dt, de := w.Durable(); dt == 3 && de == 7 {
			return
		}
		if time.Now().After(deadline) {
			dt, de := w.Durable()
			t.Fatalf("flusher never advanced the watermark: durable (%d, %d), want (3, 7)", dt, de)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
