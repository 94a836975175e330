// Package rsu implements the roadside-unit deployment surface of
// SafeCross: a TCP server that streams left-turn advisories and
// serving-plane health to subscribed vehicle clients as
// newline-delimited JSON, and the matching client. This is the
// "added to the existing infrastructure" integration the paper's
// Fig. 1 sketches: the RSU has the global view; vehicles receive
// warnings.
package rsu

import (
	"fmt"

	"safecross/internal/safecross"
	"safecross/internal/serve"
	"safecross/internal/telemetry"
)

// Message types exchanged between RSU and vehicles.
const (
	// TypeSubscribe is sent by a vehicle to start receiving
	// advisories.
	TypeSubscribe = "subscribe"
	// TypeWelcome acknowledges a subscription.
	TypeWelcome = "welcome"
	// TypeAdvisory carries a per-frame turn/no-turn decision.
	TypeAdvisory = "advisory"
	// TypeStats carries a periodic serving-plane health snapshot.
	TypeStats = "stats"
	// TypeRedirect tells a vehicle the intersection it wants lives
	// elsewhere: sent in answer to a subscribe for an intersection the
	// node does not own, and to subscribed vehicles when a shard moves
	// away.
	TypeRedirect = "redirect"
)

// Message is the vehicle protocol's JSON envelope.
type Message struct {
	// Type is one of the Type* constants.
	Type string `json:"type"`
	// Vehicle identifies the subscriber (subscribe/welcome).
	Vehicle string `json:"vehicle,omitempty"`
	// Frame is the camera frame index an advisory refers to.
	Frame int `json:"frame,omitempty"`
	// Ready reports whether the RSU's clip buffer was full; when
	// false, Safe must be ignored.
	Ready bool `json:"ready,omitempty"`
	// Safe is the advisory verdict: true = the blind area is clear.
	Safe bool `json:"safe,omitempty"`
	// Scene is the detected weather scene name.
	Scene string `json:"scene,omitempty"`
	// Intersection identifies which intersection's camera an
	// advisory refers to when one RSU serves several (0 for a
	// single-intersection deployment).
	Intersection int `json:"intersection,omitempty"`
	// Served is the number of verdicts the serving plane has
	// delivered (stats messages).
	Served int `json:"served,omitempty"`
	// Rejected is the number of requests shed by backpressure —
	// queue-full plus expired deadlines (stats messages).
	Rejected int `json:"rejected,omitempty"`
	// P99Micros is the serving plane's p99 submit-to-verdict latency
	// in microseconds (stats messages).
	P99Micros int64 `json:"p99Micros,omitempty"`
	// Addr is an endpoint address: the new owner on a redirect, and
	// the sender's own address on a welcome.
	Addr string `json:"addr,omitempty"`
	// Epoch is the routing version a redirect reflects.
	Epoch int64 `json:"epoch,omitempty"`
	// TraceID carries distributed trace context: the fleet-wide trace
	// identity in telemetry.TraceID wire form (16 hex digits). A
	// subscribe stamped with it lets the node trace the join; an
	// advisory stamped with it lets the vehicle join the frame's trace.
	// Optional everywhere.
	TraceID string `json:"trace_id,omitempty"`
	// ParentSpan names the sender-side span this message hangs under
	// (e.g. "broadcast" on an advisory), so the receiver's trace
	// segment records where in the remote tree it belongs. Only
	// meaningful alongside TraceID.
	ParentSpan string `json:"parent_span,omitempty"`
}

// TraceContext decodes the message's trace fields into a trace ID and
// remote parent, for telemetry.Tracer.StartLinked. A message without
// trace context yields (0, ""); a malformed trace_id also yields zero
// (Validate is where malformed context is rejected — receivers that
// skipped validation degrade to an untraced message).
func (m Message) TraceContext() (telemetry.TraceID, string) {
	id, err := telemetry.ParseTraceID(m.TraceID)
	if err != nil || id == 0 {
		return 0, ""
	}
	return id, m.ParentSpan
}

// WithTraceContext returns a copy of the message stamped with trace
// context; a zero id strips any context (the message travels
// untraced).
func (m Message) WithTraceContext(id telemetry.TraceID, parentSpan string) Message {
	if id == 0 {
		m.TraceID, m.ParentSpan = "", ""
		return m
	}
	m.TraceID, m.ParentSpan = id.String(), parentSpan
	return m
}

// IntersectionAdvisory builds an advisory tagged with the
// intersection it concerns, for RSUs multiplexing several cameras
// through one serving plane.
func IntersectionAdvisory(intersection, frame int, d *safecross.Decision) Message {
	return Message{
		Type:         TypeAdvisory,
		Intersection: intersection,
		Frame:        frame,
		Ready:        d.Ready,
		Safe:         d.Safe,
		Scene:        d.Scene.String(),
	}
}

// StatsMessage builds the serving-plane health snapshot broadcast.
func StatsMessage(st serve.Stats) Message {
	return Message{
		Type:      TypeStats,
		Served:    st.Completed,
		Rejected:  st.Rejected + st.Expired,
		P99Micros: st.P99.Microseconds(),
	}
}

// RedirectMessage points a vehicle at addr for the given
// intersection.
func RedirectMessage(intersection int, addr string, epoch int64) Message {
	return Message{Type: TypeRedirect, Intersection: intersection, Addr: addr, Epoch: epoch}
}

// Validate checks well-formedness of an inbound message.
func (m Message) Validate() error {
	// Trace context is optional on every type but must be well-formed
	// when present: a parseable non-zero trace id, and a parent span
	// only in the company of an id (an orphaned parent cannot be
	// attached to any trace).
	if m.TraceID != "" {
		if _, err := telemetry.ParseTraceID(m.TraceID); err != nil {
			return fmt.Errorf("rsu: %s with malformed trace id: %w", m.Type, err)
		}
	} else if m.ParentSpan != "" {
		return fmt.Errorf("rsu: %s with parent span %q but no trace id", m.Type, m.ParentSpan)
	}
	if len(m.ParentSpan) > 128 {
		return fmt.Errorf("rsu: %s with oversized parent span", m.Type)
	}
	switch m.Type {
	case TypeSubscribe:
		if m.Vehicle == "" {
			return fmt.Errorf("rsu: subscribe without vehicle id")
		}
		if m.Intersection < 0 {
			return fmt.Errorf("rsu: subscribe with negative intersection %d", m.Intersection)
		}
		return nil
	case TypeRedirect:
		if m.Addr == "" {
			return fmt.Errorf("rsu: redirect without target address")
		}
		return nil
	case TypeWelcome, TypeAdvisory, TypeStats:
		return nil
	default:
		return fmt.Errorf("rsu: unknown message type %q", m.Type)
	}
}
