package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"testing"
)

// FuzzWALReplay throws arbitrary byte soup at the write-ahead log
// replayer — the code every coordinator restart trusts with whatever a
// crash left on disk. Invariants:
//
//   - replay never panics and never returns an error for in-memory
//     input (content damage is torn records, not failure);
//   - goodLen never exceeds the input and is exactly the bytes the
//     intact frames cover;
//   - a record is returned iff at least one intact frame exists
//     (goodLen > 0 ⟺ rec != nil);
//   - recovery is idempotent: replaying the goodLen-truncated prefix —
//     exactly what openWAL leaves on disk — yields the same record,
//     the same length, and zero torn frames.
func FuzzWALReplay(f *testing.F) {
	frame := func(payload []byte) []byte {
		b := make([]byte, walHeaderLen+len(payload))
		binary.LittleEndian.PutUint32(b[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
		copy(b[walHeaderLen:], payload)
		return b
	}
	rec1, _ := json.Marshal(fleetView{Term: 1, Epoch: 1, Primary: "p", Seeds: []string{"p"}})
	rec2, _ := json.Marshal(fleetView{Term: 2, Epoch: 5, Primary: "q", Seeds: []string{"p", "q"}, Owners: map[int]string{0: "n0"}})

	f.Add([]byte{})
	f.Add(frame(rec1))
	f.Add(append(frame(rec1), frame(rec2)...))
	f.Add(append(frame(rec1), "torn tail"...))
	f.Add(frame(rec2)[:len(frame(rec2))-3]) // truncated payload
	f.Add(frame([]byte("framed but not json")))
	corrupted := frame(rec2)
	corrupted[walHeaderLen+2] ^= 0x08
	f.Add(append(frame(rec1), corrupted...))
	insane := make([]byte, walHeaderLen)
	binary.LittleEndian.PutUint32(insane[:4], uint32(walMaxRecord+1))
	f.Add(append(frame(rec1), insane...))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, goodLen, torn, err := replayWAL(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("replay errored on in-memory bytes: %v", err)
		}
		if goodLen < 0 || goodLen > int64(len(data)) {
			t.Fatalf("goodLen %d outside [0, %d]", goodLen, len(data))
		}
		if (rec != nil) != (goodLen > 0) {
			t.Fatalf("rec=%v but goodLen=%d", rec, goodLen)
		}
		if torn < 0 || torn > 1 {
			// Replay stops at the first bad frame, so it can abandon at
			// most one damage site per scan.
			t.Fatalf("torn = %d, want 0 or 1", torn)
		}
		rec2, goodLen2, torn2, err := replayWAL(bytes.NewReader(data[:goodLen]))
		if err != nil {
			t.Fatalf("replay of recovered prefix errored: %v", err)
		}
		if goodLen2 != goodLen || torn2 != 0 {
			t.Fatalf("recovery not idempotent: goodLen %d→%d, torn %d", goodLen, goodLen2, torn2)
		}
		if (rec == nil) != (rec2 == nil) {
			t.Fatalf("recovered prefix lost the record: %v vs %v", rec, rec2)
		}
		if rec != nil && (rec2.Term != rec.Term || rec2.Epoch != rec.Epoch) {
			t.Fatalf("recovered prefix replayed (%d, %d), want (%d, %d)", rec2.Term, rec2.Epoch, rec.Term, rec.Epoch)
		}
	})
}
