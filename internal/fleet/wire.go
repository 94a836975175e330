package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
)

// The control-plane wire: newline-delimited JSON frames between node
// agents and coordinators, and between coordinators. Vehicles never
// see these frames — their protocol is rsu.Message — so the format is
// private to the fleet.
const (
	// kindHeartbeat is the liveness ping: an agent sends it to the
	// coordinator on an interval, and the coordinator echoes it back
	// carrying the current epoch (the agent's RTT sample). A standby
	// also acks each replicate frame with one.
	kindHeartbeat = "heartbeat"
	// kindAssign is the coordinator's authoritative shard push: the
	// intersections the receiving node owns plus the full
	// intersection→owner-address table, so any node can redirect a
	// misdirected vehicle.
	kindAssign = "assign"
	// kindRedirect answers a heartbeat from a node already declared
	// dead: Addr points back at the coordinator, and the node drops its
	// shards and rejoins as a newcomer.
	kindRedirect = "redirect"
	// kindReplicate is the primary's state stream to a standby: the
	// whole fleetView plus the commit watermark.
	kindReplicate = "replicate"
	// kindPromote names where the primary is. A standby answers a node
	// heartbeat with it, and a fenced replicate gets it back so a stale
	// primary steps down. Unlike a redirect it never means "you are
	// dead": the receiver keeps its shards and re-heartbeats at Addr.
	kindPromote = "promote"
	// kindVote is a candidate standby's ballot request: Addr names the
	// candidate, Term the successor term it proposes (≥ 2 — term 1
	// belongs to the birth primary and is never elected), Epoch its
	// replicated epoch.
	kindVote = "vote"
	// kindAck is the vote reply: Granted reports whether the responder
	// also sees the primary silent and pledges the term; Term/Epoch are
	// the responder's own stamp.
	kindAck = "ack"
)

// ctrl is the control-plane envelope. Field order is wire order: keep
// it, because every kind but replicate must stay byte-identical for
// peers of other builds (TestControlWireStable pins the bytes).
type ctrl struct {
	Type string `json:"type"`
	// Node is the sender's fleet identity (heartbeats).
	Node string `json:"node,omitempty"`
	// Addr is an endpoint: the node's advertised RSU address on a
	// registering heartbeat, the coordinator on a redirect, the primary
	// on a promote, the candidate on a vote.
	Addr string `json:"addr,omitempty"`
	// Epoch and Term are the (term, epoch) fencing stamp; receivers
	// order control pushes by it lexicographically.
	Epoch int64 `json:"epoch,omitempty"`
	Term  int64 `json:"term,omitempty"`
	// Commit is the replication watermark (replicate frames): the
	// highest epoch of this term the primary has made durable. A standby
	// persists the view only once Commit covers it. Never above the
	// view's epoch.
	Commit int64 `json:"commit,omitempty"`
	// Granted is an ack's vote verdict.
	Granted bool `json:"granted,omitempty"`
	// Owned and Table are an assign's payload: the receiver's shards
	// and every intersection's owner address.
	Owned []int          `json:"owned,omitempty"`
	Table map[int]string `json:"table,omitempty"`
	// Draining marks a heartbeat as a graceful-leave announcement.
	Draining bool `json:"draining,omitempty"`
	// DebugAddr is the node's telemetry debug listener (heartbeats),
	// the coordinator's federation scrape target.
	DebugAddr string `json:"debug_addr,omitempty"`
	// View is a replicate frame's payload.
	View *fleetView `json:"view,omitempty"`
}

// fleetView is the coordinator's whole state under its (term, epoch)
// stamp: one type for both the write-ahead log record and the
// replicate frame's payload. Its JSON is the log's on-disk encoding.
type fleetView struct {
	Term    int64          `json:"term"`
	Epoch   int64          `json:"epoch"`
	Primary string         `json:"primary,omitempty"`
	Seeds   []string       `json:"seeds,omitempty"`
	Keys    []int          `json:"keys,omitempty"`
	Owners  map[int]string `json:"owners,omitempty"`
	Members []viewMember   `json:"members,omitempty"`
}

// viewMember is one node's membership record in a fleetView. Dead
// tombstones are kept, so a new primary keeps rejecting late
// heartbeats from reassigned nodes.
type viewMember struct {
	Node      string `json:"node"`
	Addr      string `json:"addr,omitempty"`
	DebugAddr string `json:"debug_addr,omitempty"`
	// State is "live", "suspect" or "dead".
	State string `json:"state"`
}

func heartbeatMsg(node, addr string, epoch int64) ctrl {
	return ctrl{Type: kindHeartbeat, Node: node, Addr: addr, Epoch: epoch}
}

func assignMsg(term, epoch int64, owned []int, table map[int]string) ctrl {
	return ctrl{Type: kindAssign, Epoch: epoch, Term: term, Owned: owned, Table: table}
}

func redirectMsg(addr string, epoch int64) ctrl {
	return ctrl{Type: kindRedirect, Addr: addr, Epoch: epoch}
}

func promoteMsg(primary string, term, epoch int64) ctrl {
	return ctrl{Type: kindPromote, Addr: primary, Term: term, Epoch: epoch}
}

func voteMsg(candidate string, term, epoch int64) ctrl {
	return ctrl{Type: kindVote, Addr: candidate, Term: term, Epoch: epoch}
}

func ackMsg(granted bool, term, epoch int64) ctrl {
	return ctrl{Type: kindAck, Granted: granted, Term: term, Epoch: epoch}
}

// validate checks the well-formedness of an inbound frame.
func (m ctrl) validate() error {
	switch m.Type {
	case kindHeartbeat:
		if m.Node == "" {
			return errors.New("heartbeat without node id")
		}
	case kindAssign:
		if m.Epoch < 1 {
			return fmt.Errorf("assign with epoch %d, need >= 1", m.Epoch)
		}
	case kindRedirect:
		if m.Addr == "" {
			return errors.New("redirect without target address")
		}
	case kindReplicate:
		v := m.View
		switch {
		case v == nil:
			return errors.New("replicate without a fleet view")
		case v.Term < 1:
			return fmt.Errorf("replicate with term %d, need >= 1", v.Term)
		case v.Primary == "":
			return errors.New("replicate without primary address")
		case len(v.Seeds) == 0:
			return errors.New("replicate without coordinator seed list")
		case m.Commit < 0 || m.Commit > v.Epoch:
			return fmt.Errorf("replicate commit watermark %d outside [0, epoch %d]", m.Commit, v.Epoch)
		}
	case kindPromote:
		if m.Addr == "" {
			return errors.New("promote without primary address")
		}
		if m.Term < 1 {
			return fmt.Errorf("promote with term %d, need >= 1", m.Term)
		}
	case kindVote:
		if m.Addr == "" {
			return errors.New("vote without candidate address")
		}
		if m.Term < 2 {
			return fmt.Errorf("vote proposing term %d, need >= 2 (term 1 is never elected)", m.Term)
		}
	case kindAck:
		if m.Term < 0 || m.Epoch < 0 {
			return fmt.Errorf("ack with negative stamp (term %d, epoch %d)", m.Term, m.Epoch)
		}
	default:
		return fmt.Errorf("unknown control frame type %q", m.Type)
	}
	return nil
}

// errBadFrame marks a frame that decoded but failed validation.
var errBadFrame = errors.New("fleet: invalid control frame")

// readControl decodes and validates the next frame. Every control
// reader goes through it, and an error of either kind ends the
// connection, so nothing ever acts on a malformed frame.
func readControl(dec *json.Decoder) (ctrl, error) {
	var m ctrl
	if err := dec.Decode(&m); err != nil {
		return ctrl{}, err
	}
	if err := m.validate(); err != nil {
		return ctrl{}, fmt.Errorf("%w: %v", errBadFrame, err)
	}
	return m, nil
}
