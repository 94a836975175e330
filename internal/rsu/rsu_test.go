package rsu

import (
	"encoding/json"
	"net"
	"testing"
	"time"

	"safecross/internal/safecross"
	"safecross/internal/serve"
	"safecross/internal/sim"
	"safecross/internal/telemetry"
)

func TestMessageValidate(t *testing.T) {
	tests := []struct {
		name    string
		msg     Message
		wantErr bool
	}{
		{name: "subscribe-ok", msg: Message{Type: TypeSubscribe, Vehicle: "v1"}},
		{name: "subscribe-missing-id", msg: Message{Type: TypeSubscribe}, wantErr: true},
		{name: "advisory-ok", msg: Message{Type: TypeAdvisory}},
		{name: "subscribe-negative-intersection", msg: Message{Type: TypeSubscribe, Vehicle: "v1", Intersection: -1}, wantErr: true},
		{name: "redirect-ok", msg: RedirectMessage(7, "127.0.0.1:9", 2)},
		{name: "redirect-missing-addr", msg: Message{Type: TypeRedirect, Intersection: 7}, wantErr: true},
		{name: "unknown", msg: Message{Type: "nope"}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.msg.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() err=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestAdvisoryMessage(t *testing.T) {
	d := &safecross.Decision{Ready: true, Safe: true, Scene: sim.Rain}
	msg := IntersectionAdvisory(3, 42, d)
	if msg.Type != TypeAdvisory || msg.Intersection != 3 || msg.Frame != 42 || !msg.Safe || !msg.Ready || msg.Scene != "rain" {
		t.Fatalf("advisory message = %+v", msg)
	}
}

func TestServerClientRoundTrip(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr(), "vehicle-1")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	waitFor(t, func() bool { return srv.Subscribers() == 1 })

	want := Message{Type: TypeAdvisory, Frame: 7, Ready: true, Safe: true, Scene: "day"}
	srv.Broadcast(want)

	select {
	case got := <-cli.Messages():
		if got.Type != want.Type || got.Frame != want.Frame || got.Safe != want.Safe || got.Scene != want.Scene {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for advisory")
	}
}

func TestServerMultipleSubscribers(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var clients []*Client
	for i := 0; i < 3; i++ {
		c, err := Dial(srv.Addr(), "v")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	waitFor(t, func() bool { return srv.Subscribers() == 3 })

	srv.Broadcast(Message{Type: TypeAdvisory, Scene: "rain"})
	for i, c := range clients {
		select {
		case got := <-c.Messages():
			if got.Scene != "rain" {
				t.Fatalf("client %d got %+v", i, got)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("client %d timed out", i)
		}
	}
}

func TestServerRejectsBadHandshake(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := json.NewEncoder(conn).Encode(Message{Type: "bogus"}); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection without subscribing.
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected connection close after bad handshake")
	}
	if srv.Subscribers() != 0 {
		t.Fatal("bad handshake must not subscribe")
	}
}

func TestClientChannelClosesOnServerClose(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-cli.Messages():
		if ok {
			// Drain any message delivered before the close.
			for range cli.Messages() {
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("client channel did not close after server shutdown")
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", ""); err == nil {
		t.Fatal("expected empty-vehicle error")
	}
	if _, err := Dial("127.0.0.1:2", "v"); err == nil {
		t.Fatal("expected connection-refused error")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// waitFor polls a condition with a deadline, replacing sleeps.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met within deadline")
}

func TestServerStats(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr(), "v-stats")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	waitFor(t, func() bool { return srv.Subscribers() == 1 })

	srv.Broadcast(Message{Type: TypeAdvisory, Frame: 1})
	srv.Broadcast(Message{Type: TypeAdvisory, Frame: 2})
	waitFor(t, func() bool {
		s := srv.Stats()
		return s.Broadcasts == 2 && s.Enqueued == 2 && s.Subscribed == 1
	})
	if s := srv.Stats(); s.Dropped != 0 {
		t.Fatalf("unexpected drops: %+v", s)
	}
}

// The vehicle wire is pinned byte for byte: these are the encodings
// deployed vehicle clients already parse.
func TestVehicleWireStable(t *testing.T) {
	id, err := telemetry.ParseTraceID("4bf92f3577b34da6")
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		msg  Message
		want string
	}{
		{"subscribe", Message{Type: TypeSubscribe, Vehicle: "veh-1", Intersection: 3}.WithTraceContext(id, "attach"),
			`{"type":"subscribe","vehicle":"veh-1","intersection":3,"trace_id":"4bf92f3577b34da6","parent_span":"attach"}`},
		{"welcome", Message{Type: TypeWelcome, Vehicle: "veh-1", Intersection: 3, Addr: "127.0.0.1:9000"},
			`{"type":"welcome","vehicle":"veh-1","intersection":3,"addr":"127.0.0.1:9000"}`},
		{"advisory", IntersectionAdvisory(2, 42, &safecross.Decision{Ready: true, Safe: false, Scene: sim.Rain}).WithTraceContext(id, "broadcast"),
			`{"type":"advisory","frame":42,"ready":true,"scene":"rain","intersection":2,"trace_id":"4bf92f3577b34da6","parent_span":"broadcast"}`},
		{"advisory-safe", IntersectionAdvisory(1, 7, &safecross.Decision{Ready: true, Safe: true, Scene: sim.Day}),
			`{"type":"advisory","frame":7,"ready":true,"safe":true,"scene":"day","intersection":1}`},
		{"stats", StatsMessage(serve.Stats{Completed: 100, Rejected: 2, Expired: 1, P99: 1500 * time.Microsecond}),
			`{"type":"stats","served":100,"rejected":3,"p99Micros":1500}`},
		{"redirect", RedirectMessage(5, "127.0.0.1:9001", 9),
			`{"type":"redirect","intersection":5,"addr":"127.0.0.1:9001","epoch":9}`},
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
