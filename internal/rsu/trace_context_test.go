package rsu

import (
	"encoding/json"
	"strings"
	"testing"

	"safecross/internal/safecross"
	"safecross/internal/sim"
	"safecross/internal/telemetry"
)

// Trace context rides every vehicle frame as optional fields, but what
// does arrive must be well-formed: Validate rejects malformed ids,
// orphaned parent spans, and oversized parents before the message is
// acted on.
func TestMessageValidateTraceContext(t *testing.T) {
	id := telemetry.NewTraceID()
	ok := func(m Message) Message { return m }
	tests := []struct {
		name    string
		msg     Message
		wantErr bool
	}{
		{name: "advisory-with-context", msg: ok(Message{Type: TypeAdvisory}.WithTraceContext(id, "broadcast"))},
		{name: "subscribe-with-context", msg: ok(Message{Type: TypeSubscribe, Vehicle: "v1"}.WithTraceContext(id, "attach"))},
		{name: "context-without-parent", msg: Message{Type: TypeAdvisory, TraceID: id.String()}},
		{name: "malformed-trace-id", msg: Message{Type: TypeAdvisory, TraceID: "not-hex-not-16"}, wantErr: true},
		{name: "short-trace-id", msg: Message{Type: TypeAdvisory, TraceID: "abc"}, wantErr: true},
		{name: "zero-trace-id", msg: Message{Type: TypeAdvisory, TraceID: "0000000000000000"}, wantErr: true},
		{name: "parent-without-id", msg: Message{Type: TypeAdvisory, ParentSpan: "broadcast"}, wantErr: true},
		{name: "oversized-parent", msg: Message{Type: TypeAdvisory, TraceID: id.String(), ParentSpan: strings.Repeat("x", 129)}, wantErr: true},
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

func TestTraceContextRoundTrip(t *testing.T) {
	id := telemetry.NewTraceID()
	msg := IntersectionAdvisory(3, 7, &safecross.Decision{Ready: true, Safe: true, Scene: sim.Rain}).WithTraceContext(id, "broadcast")
	gotID, gotParent := msg.TraceContext()
	if gotID != id || gotParent != "broadcast" {
		t.Fatalf("TraceContext = (%v, %q), want (%v, broadcast)", gotID, gotParent, id)
	}

	// The context survives the wire.
	data, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	var back Message
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if backID, backParent := back.TraceContext(); backID != id || backParent != "broadcast" {
		t.Fatalf("wire round trip lost context: (%v, %q)", backID, backParent)
	}

	// A zero id strips context entirely — the message travels untraced
	// and the json stays free of empty trace fields.
	stripped := msg.WithTraceContext(0, "ignored")
	if stripped.TraceID != "" || stripped.ParentSpan != "" {
		t.Fatalf("zero id did not strip context: %+v", stripped)
	}
	data, _ = json.Marshal(stripped)
	if strings.Contains(string(data), "trace_id") || strings.Contains(string(data), "parent_span") {
		t.Fatalf("stripped message still carries trace fields on the wire: %s", data)
	}

	// Malformed context on an unvalidated message degrades to untraced
	// rather than poisoning the receiver.
	if gotID, gotParent := (Message{Type: TypeAdvisory, TraceID: "zzz"}).TraceContext(); gotID != 0 || gotParent != "" {
		t.Fatalf("malformed context decoded to (%v, %q), want (0, \"\")", gotID, gotParent)
	}
}

// An untraced message yields a zero context, and the zero context
// starts no linked trace on a nil tracer — the no-trace path costs
// nothing end to end.
func TestTraceContextAbsent(t *testing.T) {
	if id, parent := (Message{Type: TypeAdvisory}).TraceContext(); id != 0 || parent != "" {
		t.Fatalf("absent context = (%v, %q)", id, parent)
	}
	var tr *telemetry.Tracer
	if got := tr.StartLinked("x", 0, ""); got != nil {
		t.Fatal("nil tracer started a trace")
	}
}
