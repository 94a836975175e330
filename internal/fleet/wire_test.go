package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"safecross/internal/rsu"
)

func TestControlValidate(t *testing.T) {
	view := func(term, epoch int64) *fleetView {
		return &fleetView{Term: term, Epoch: epoch, Primary: "127.0.0.1:7000", Seeds: []string{"127.0.0.1:7000"}}
	}
	tests := []struct {
		name    string
		msg     ctrl
		wantErr bool
	}{
		{name: "heartbeat-ok", msg: heartbeatMsg("node-a", "127.0.0.1:9", 3)},
		{name: "heartbeat-missing-node", msg: ctrl{Type: kindHeartbeat}, wantErr: true},
		{name: "assign-ok", msg: assignMsg(1, 1, []int{1, 2}, map[int]string{1: "a:1", 2: "a:1"})},
		{name: "assign-empty-owned-ok", msg: assignMsg(1, 4, nil, nil)},
		{name: "assign-zero-epoch", msg: ctrl{Type: kindAssign}, wantErr: true},
		{name: "redirect-ok", msg: redirectMsg("127.0.0.1:7000", 2)},
		{name: "redirect-missing-addr", msg: ctrl{Type: kindRedirect}, wantErr: true},
		{name: "replicate-ok", msg: ctrl{Type: kindReplicate, Commit: 4, View: view(2, 5)}},
		// A replicate in the flat shape of the shared-envelope build
		// decodes to this: its view fields are unknown keys.
		{name: "replicate-without-view", msg: ctrl{Type: kindReplicate, Commit: 10}, wantErr: true},
		{name: "replicate-term-zero", msg: ctrl{Type: kindReplicate, View: view(0, 5)}, wantErr: true},
		{name: "replicate-without-primary", msg: ctrl{Type: kindReplicate, View: &fleetView{Term: 1, Seeds: []string{"p"}}}, wantErr: true},
		{name: "replicate-without-seeds", msg: ctrl{Type: kindReplicate, View: &fleetView{Term: 1, Primary: "p"}}, wantErr: true},
		{name: "replicate-commit-above-epoch", msg: ctrl{Type: kindReplicate, Commit: 6, View: view(2, 5)}, wantErr: true},
		{name: "promote-ok", msg: promoteMsg("127.0.0.1:7001", 2, 5)},
		{name: "promote-missing-addr", msg: ctrl{Type: kindPromote, Term: 2}, wantErr: true},
		{name: "promote-term-zero", msg: ctrl{Type: kindPromote, Addr: "127.0.0.1:7001"}, wantErr: true},
		{name: "vote-ok", msg: voteMsg("127.0.0.1:7001", 2, 5)},
		{name: "vote-term-one", msg: voteMsg("127.0.0.1:7001", 1, 5), wantErr: true},
		{name: "vote-missing-addr", msg: ctrl{Type: kindVote, Term: 2}, wantErr: true},
		{name: "ack-ok", msg: ackMsg(true, 2, 5)},
		{name: "ack-negative-stamp", msg: ackMsg(false, -1, 0), wantErr: true},
		{name: "vehicle-kind", msg: ctrl{Type: rsu.TypeAdvisory}, wantErr: true},
		{name: "unknown", msg: ctrl{Type: "nope"}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.msg.validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("validate() err=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

// FuzzControlRoundTrip feeds arbitrary bytes through the read path of
// every control connection: decode, validate and — for frames that
// validate — re-encode. The properties under test:
//
//   - decode + validate never panic, whatever the bytes;
//   - a frame that validates still validates after one encode/decode
//     round trip, so a relayed frame is never rejected downstream;
//   - encoding is a canonicalisation fixed point: the second and third
//     generations decode equal (no field silently mutates in flight).
//
// The committed corpus under testdata/fuzz/FuzzControlRoundTrip seeds
// replicate frames with commit watermarks, vote/ack ballots, a draining
// heartbeat, and the malformed variants of each.
func FuzzControlRoundTrip(f *testing.F) {
	seeds := []string{
		`{"type":"heartbeat","node":"node-0","addr":"127.0.0.1:9000","epoch":4,"draining":true,"debug_addr":"127.0.0.1:9100"}`,
		`{"type":"heartbeat","epoch":4}`,
		`{"type":"assign","epoch":7,"term":2,"owned":[1,2,3],"table":{"1":"127.0.0.1:9000","2":"127.0.0.1:9001"}}`,
		`{"type":"assign","term":2}`,
		`{"type":"redirect","addr":"127.0.0.1:7000","epoch":9}`,
		`{"type":"replicate","commit":10,"view":{"term":3,"epoch":11,"primary":"127.0.0.1:7000","seeds":["127.0.0.1:7000","127.0.0.1:7001"],"keys":[1,2],"owners":{"1":"node-0","2":"node-1"},"members":[{"node":"node-0","addr":"127.0.0.1:9000","state":"live"},{"node":"node-1","state":"dead"}]}}`,
		`{"type":"replicate","commit":3,"view":{"term":1,"epoch":2,"primary":"p","seeds":["p"]}}`,
		`{"type":"replicate","view":null}`,
		`{"type":"replicate","term":3,"epoch":11,"commit":10,"primary":"127.0.0.1:7000","seeds":["127.0.0.1:7000"]}`,
		`{"type":"promote","addr":"127.0.0.1:7001","epoch":11,"term":2}`,
		`{"type":"promote","term":99}`,
		`{"type":"vote","addr":"127.0.0.1:7001","epoch":11,"term":2}`,
		`{"type":"vote","addr":"127.0.0.1:7001","term":1}`,
		`{"type":"ack","epoch":11,"term":2,"granted":true}`,
		`{"type":"ack","term":-1}`,
		`{"type":"advisory","frame":12}`,
		`not json at all`,
		`{"type":"heartbeat","node":"node-0"`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := readControl(json.NewDecoder(bytes.NewReader(data)))
		if err != nil {
			return // rejected frames only need to be rejected
		}
		first, err := json.Marshal(msg)
		if err != nil {
			t.Fatalf("valid frame failed to encode: %v", err)
		}
		second, err := readControl(json.NewDecoder(bytes.NewReader(first)))
		if err != nil {
			t.Fatalf("frame became invalid after one round trip: %v\nencoding: %s", err, first)
		}
		// The first decode may hold non-nil empty maps/slices that
		// omitempty drops, so canonical-form equality is asserted
		// between the second and third generations.
		canon, err := json.Marshal(second)
		if err != nil {
			t.Fatalf("canonical form failed to encode: %v", err)
		}
		var third ctrl
		if err := json.Unmarshal(canon, &third); err != nil {
			t.Fatalf("canonical form failed to decode: %v", err)
		}
		if !reflect.DeepEqual(second, third) {
			t.Fatalf("round trip is not a fixed point:\nsecond: %#v\nthird:  %#v", second, third)
		}
	})
}

// Every control frame except replicate keeps the exact bytes it had
// while the fleet spoke through rsu.Message, so agents and coordinators
// of either encoding interoperate on everything but replication.
func TestControlWireStable(t *testing.T) {
	hb := heartbeatMsg("node-1", "127.0.0.1:9000", 4)
	hb.Draining, hb.DebugAddr = true, "127.0.0.1:9100"
	table := map[int]string{1: "127.0.0.1:9000", 2: "127.0.0.1:9001", 3: "127.0.0.1:9000"}
	tests := []struct {
		name string
		msg  ctrl
		want string
	}{
		{"heartbeat", hb, `{"type":"heartbeat","node":"node-1","addr":"127.0.0.1:9000","epoch":4,"draining":true,"debug_addr":"127.0.0.1:9100"}`},
		{"heartbeat-ack", heartbeatMsg("node-1", "", 4), `{"type":"heartbeat","node":"node-1","epoch":4}`},
		{"assign", assignMsg(2, 7, []int{1, 3}, table), `{"type":"assign","epoch":7,"term":2,"owned":[1,3],"table":{"1":"127.0.0.1:9000","2":"127.0.0.1:9001","3":"127.0.0.1:9000"}}`},
		{"assign-empty", assignMsg(2, 8, nil, map[int]string{}), `{"type":"assign","epoch":8,"term":2}`},
		{"redirect", redirectMsg("127.0.0.1:7000", 9), `{"type":"redirect","addr":"127.0.0.1:7000","epoch":9}`},
		{"promote", promoteMsg("127.0.0.1:7001", 3, 11), `{"type":"promote","addr":"127.0.0.1:7001","epoch":11,"term":3}`},
		{"vote", voteMsg("127.0.0.1:7001", 3, 11), `{"type":"vote","addr":"127.0.0.1:7001","epoch":11,"term":3}`},
		{"ack-granted", ackMsg(true, 3, 11), `{"type":"ack","epoch":11,"term":3,"granted":true}`},
		{"ack-denied", ackMsg(false, 3, 0), `{"type":"ack","term":3}`},
	}
	for _, tt := range tests {
		got, err := json.Marshal(tt.msg)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if string(got) != tt.want {
			t.Errorf("%s encodes as\n %s\nwant\n %s", tt.name, got, tt.want)
		}
	}
}

// previousWAL is one log record, header included, as the build that
// kept its members as rsu.FleetMember wrote it.
const previousWAL = "\x86\x01\x00\x00?7\xd9\n{\"term\":3,\"epoch\":11,\"primary\":\"127.0.0.1:7000\",\"seeds\":[\"127.0.0.1:7000\",\"127.0.0.1:7001\",\"127.0.0.1:7002\"],\"keys\":[1,2,3],\"owners\":{\"1\":\"node-a\",\"2\":\"node-b\",\"3\":\"node-a\"},\"members\":[{\"node\":\"node-a\",\"addr\":\"127.0.0.1:9000\",\"debug_addr\":\"127.0.0.1:9100\",\"state\":\"live\"},{\"node\":\"node-b\",\"addr\":\"127.0.0.1:9001\",\"state\":\"suspect\"},{\"node\":\"node-c\",\"addr\":\"127.0.0.1:9002\",\"state\":\"dead\"}]}"

// An existing log replays, adopts, and re-encodes byte for byte: the
// on-disk format did not move when the record became the fleetView.
func TestPreviousWALRecordAdopts(t *testing.T) {
	rec, goodLen, torn, err := replayWAL(bytes.NewReader([]byte(previousWAL)))
	if err != nil || rec == nil || torn != 0 || goodLen != int64(len(previousWAL)) {
		t.Fatalf("replay = (%v, %d, %d, %v); want the whole record intact", rec, goodLen, torn, err)
	}

	path := filepath.Join(t.TempDir(), "coord.wal")
	w, _, err := openWAL(path, walOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(*rec)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != previousWAL {
		t.Fatalf("record re-encodes as\n %q\nwant\n %q", got, previousWAL)
	}

	tt := testTimings()
	c, err := NewCoordinator("127.0.0.1:0", AsStandby(), WithHeartbeat(tt.HeartbeatEvery, tt.SuspectAfter, tt.DeadAfter))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.mu.Lock()
	c.adoptLocked(rec, rec.Term, 0)
	back := c.viewLocked()
	c.mu.Unlock()
	if !reflect.DeepEqual(&back, rec) {
		t.Fatalf("adopted view\n %+v\nwant the record\n %+v", back, *rec)
	}
	if c.Term() != 3 || c.Epoch() != 11 {
		t.Fatalf("adopted stamp (%d, %d), want (3, 11)", c.Term(), c.Epoch())
	}
	if got := c.Assignments(); !reflect.DeepEqual(got, rec.Owners) {
		t.Fatalf("adopted owners %v, want %v", got, rec.Owners)
	}
	wantStates := map[string]NodeState{"node-a": Live, "node-b": Suspect, "node-c": Dead}
	if got := c.States(); !reflect.DeepEqual(got, wantStates) {
		t.Fatalf("adopted members %v, want %v", got, wantStates)
	}
}

// acceptWithin accepts one connection or fails the test.
func acceptWithin(t *testing.T, ln net.Listener) net.Conn {
	t.Helper()
	_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
	conn, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// readUntilClosed reads frames until the peer drops the connection,
// failing the test if it is still open after a few seconds.
func readUntilClosed(t *testing.T, conn net.Conn, dec *json.Decoder) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		var m ctrl
		err := dec.Decode(&m)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("peer kept the connection open after a malformed frame")
		}
		if err != nil {
			return
		}
	}
}

// A promote without an address, under a term far above the primary's,
// arrives on a replication stream. The primary must drop the stream and
// stay primary at its own term instead of stepping down to no one.
func TestMalformedPromoteCannotDemotePrimary(t *testing.T) {
	standby, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	tt := testTimings()
	primary, err := NewCoordinator("127.0.0.1:0", WithIntersections(1, 2),
		WithHeartbeat(tt.HeartbeatEvery, tt.SuspectAfter, tt.DeadAfter), WithStandbys(standby.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	conn := acceptWithin(t, standby)
	dec := json.NewDecoder(bufio.NewReader(conn))
	var first ctrl
	if err := dec.Decode(&first); err != nil || first.Type != kindReplicate {
		t.Fatalf("first frame = %+v, %v; want a replicate", first, err)
	}
	if err := json.NewEncoder(conn).Encode(ctrl{Type: kindPromote, Term: 99}); err != nil {
		t.Fatal(err)
	}
	readUntilClosed(t, conn, dec)
	if primary.Role() != RolePrimary || primary.Term() != 1 || primary.Primary() != primary.Addr() {
		t.Fatalf("after a malformed promote: role %v, term %d, primary %q; want primary at term 1",
			primary.Role(), primary.Term(), primary.Primary())
	}
}

// An agent is sent to a second coordinator by a valid promote; that
// coordinator answers with a promote missing its address. The agent
// must drop the session and keep the coordinator it was sent to.
func TestMalformedPromoteCannotRetargetAgent(t *testing.T) {
	seed, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	next, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	srv, err := rsu.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tt := testTimings()
	a, err := NewAgent("n1", srv, WithCoordinators(seed.Addr().String()),
		WithHeartbeat(tt.HeartbeatEvery, tt.SuspectAfter, tt.DeadAfter))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// answer reads the registering heartbeat and replies with msg.
	answer := func(conn net.Conn, msg ctrl) *json.Decoder {
		t.Helper()
		dec := json.NewDecoder(bufio.NewReader(conn))
		var hb ctrl
		if err := dec.Decode(&hb); err != nil || hb.Type != kindHeartbeat {
			t.Fatalf("first frame = %+v, %v; want a heartbeat", hb, err)
		}
		if err := json.NewEncoder(conn).Encode(msg); err != nil {
			t.Fatal(err)
		}
		return dec
	}
	answer(acceptWithin(t, seed), promoteMsg(next.Addr().String(), 2, 1))
	conn := acceptWithin(t, next)
	readUntilClosed(t, conn, answer(conn, ctrl{Type: kindPromote, Term: 3}))
	a.mu.Lock()
	target := a.target
	a.mu.Unlock()
	if target != next.Addr().String() {
		t.Fatalf("agent target = %q after a malformed promote; want %q", target, next.Addr())
	}
}
