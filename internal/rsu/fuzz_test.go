package rsu

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzMessageRoundTrip feeds arbitrary bytes through the wire path
// the RSU and every vehicle client run on each inbound frame: decode,
// validate, and — for messages that validate — re-encode. The
// properties under test:
//
//   - decode + Validate never panic, whatever the bytes;
//   - a message that validates still validates after one
//     encode/decode round trip (validation is stable under
//     re-encoding, so a relayed frame is never rejected downstream);
//   - encoding is a canonicalisation fixed point: encoding the decoded
//     form twice yields identical bytes, and the second decode equals
//     the first (no field silently mutates in flight).
//
// The committed corpus under testdata/fuzz/FuzzMessageRoundTrip seeds
// trace-context-stamped subscribes and advisories and their malformed
// variants. Control-plane frames have their own target in the fleet
// package; here a control kind is just an unknown type.
func FuzzMessageRoundTrip(f *testing.F) {
	seeds := []string{
		`{"type":"subscribe","vehicle":"veh-1","intersection":3}`,
		`{"type":"subscribe","vehicle":"veh-1","trace_id":"4bf92f3577b34da6","parent_span":"join"}`,
		`{"type":"subscribe","vehicle":"veh-1","trace_id":"zz"}`,
		`{"type":"subscribe","vehicle":"veh-1","intersection":-2}`,
		`{"type":"advisory","frame":12,"ready":true,"safe":false,"scene":"rainy","intersection":2,"trace_id":"00f067aa0ba902b7","parent_span":"broadcast"}`,
		`{"type":"advisory","parent_span":"orphaned"}`,
		`{"type":"advisory","frame":3,"trace_id":"0000000000000000"}`,
		`{"type":"advisory","trace_id":"4bf92f3577b34da6","parent_span":"` + strings.Repeat("x", 129) + `"}`,
		`{"type":"advisory","frame":-1,"safe":true,"scene":"","extra":[1,2,3]}`,
		`{"type":"redirect","intersection":5,"addr":"127.0.0.1:9001","epoch":9}`,
		`{"type":"redirect","intersection":5}`,
		`{"type":"redirect","addr":"127.0.0.1:9001","epoch":-3}`,
		`{"type":"stats","served":100,"rejected":3,"p99Micros":1500}`,
		`{"type":"stats","trace_id":"4bf92f3577b34da6"}`,
		`{"type":"welcome","vehicle":"veh-1","addr":"127.0.0.1:9000"}`,
		`{"type":"welcome","vehicle":"veh-1","intersection":3,"addr":"127.0.0.1:9000"}`,
		`{"type":"switch","scene":"snowy","method":"pipelined","switchMicros":42}`,
		`{"type":"heartbeat","node":"node-0","epoch":4}`,
		`{"type":"mystery"}`,
		`{}`,
		`not json at all`,
		`{"type":"subscribe","vehicle":"veh-1"`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var msg Message
		if err := json.Unmarshal(data, &msg); err != nil {
			return // not a frame; the decoder rejecting it IS the contract
		}
		if msg.Validate() != nil {
			return // invalid frames only need to be rejected, not round-tripped
		}
		first, err := json.Marshal(msg)
		if err != nil {
			t.Fatalf("valid message failed to encode: %v", err)
		}
		var second Message
		if err := json.Unmarshal(first, &second); err != nil {
			t.Fatalf("own encoding failed to decode: %v\nencoding: %s", err, first)
		}
		if err := second.Validate(); err != nil {
			t.Fatalf("message became invalid after one round trip: %v\nencoding: %s", err, first)
		}
		// The first decode may hold non-nil empty maps/slices that
		// omitempty drops, so canonical-form equality is asserted
		// between the second and third generations.
		canon, err := json.Marshal(second)
		if err != nil {
			t.Fatalf("canonical form failed to encode: %v", err)
		}
		var third Message
		if err := json.Unmarshal(canon, &third); err != nil {
			t.Fatalf("canonical form failed to decode: %v", err)
		}
		if !reflect.DeepEqual(second, third) {
			t.Fatalf("round trip is not a fixed point:\nsecond: %#v\nthird:  %#v", second, third)
		}
	})
}
