package fleet

import (
	"bufio"
	"encoding/json"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"safecross/internal/rsu"
	"safecross/internal/telemetry"
)

// startReplicaSet builds 1 primary + standbys standby coordinators on
// a shared registry and returns them (primary first) with the seed
// list agents should sweep.
func startReplicaSet(t *testing.T, keys []int, standbys int, reg *telemetry.Registry) ([]*Coordinator, []string) {
	t.Helper()
	tt := testTimings()
	hb := WithHeartbeat(tt.HeartbeatEvery, tt.SuspectAfter, tt.DeadAfter)
	sbs := make([]*Coordinator, 0, standbys)
	sbAddrs := make([]string, 0, standbys)
	for i := 0; i < standbys; i++ {
		sb, err := NewCoordinator("127.0.0.1:0", AsStandby(), hb, WithMetrics(reg))
		if err != nil {
			t.Fatalf("standby %d: %v", i, err)
		}
		t.Cleanup(func() { sb.Close() })
		sbs = append(sbs, sb)
		sbAddrs = append(sbAddrs, sb.Addr())
	}
	primary, err := NewCoordinator("127.0.0.1:0",
		WithIntersections(keys...), hb, WithStandbys(sbAddrs...), WithMetrics(reg))
	if err != nil {
		t.Fatalf("primary: %v", err)
	}
	t.Cleanup(func() { primary.Close() })
	coords := append([]*Coordinator{primary}, sbs...)
	seeds := append([]string{primary.Addr()}, sbAddrs...)
	return coords, seeds
}

// TestStandbyPromotionTimeline kills the primary of a three-replica
// coordinator set and walks the takeover: the first-ranked standby
// promotes itself under a larger term with the epoch resumed, exactly
// one promotion happens, the other standby follows the new primary,
// and a stale push stamped with the dead primary's term is fenced off
// with a promote reply.
func TestStandbyPromotionTimeline(t *testing.T) {
	keys := []int{1, 2, 3, 4}
	reg := telemetry.NewRegistry()
	coords, _ := startReplicaSet(t, keys, 2, reg)
	primary, sb1, sb2 := coords[0], coords[1], coords[2]

	n := dialFake(t, primary.Addr(), "n1")
	if err := n.heartbeat(); err != nil {
		t.Fatalf("register: %v", err)
	}
	n.pump(testTimings().HeartbeatEvery)
	defer n.stopPump()
	waitFor(t, "node registered and assigned", func() bool {
		return countOwned(primary.Assignments(), "n1") == len(keys)
	})
	waitFor(t, "standbys fed the primary's state", func() bool {
		return sb1.Primary() == primary.Addr() && sb2.Primary() == primary.Addr() &&
			countOwned(sb1.Assignments(), "n1") == len(keys)
	})
	if sb1.Role() != RoleStandby || sb2.Role() != RoleStandby {
		t.Fatalf("standbys claim roles %v/%v before any failure", sb1.Role(), sb2.Role())
	}
	oldTerm, oldEpoch := primary.Term(), primary.Epoch()

	primary.Close()
	waitFor(t, "first standby promoted", func() bool { return sb1.Role() == RolePrimary })
	if got := sb1.Term(); got != oldTerm+1 {
		t.Fatalf("promoted term = %d; want %d", got, oldTerm+1)
	}
	if got := sb1.Epoch(); got < oldEpoch {
		t.Fatalf("promotion regressed the epoch: %d → %d", oldEpoch, got)
	}
	// The replicated assignment must survive the takeover verbatim.
	// (The raw fakeNode only ever dialled the dead primary, so the new
	// primary will later declare it dead — which is correct; adoption
	// is checked before that clock runs out.)
	if got := countOwned(sb1.Assignments(), "n1"); got != len(keys) {
		t.Fatalf("new primary lost the assignment: n1 owns %d of %d", got, len(keys))
	}
	waitFor(t, "second standby follows the new primary", func() bool {
		return sb2.Role() == RoleStandby && sb2.Primary() == sb1.Addr()
	})
	time.Sleep(3 * testTimings().DeadAfter)
	if got := reg.Counter("fleet_promotions_total", "").Value(); got != 1 {
		t.Fatalf("promotions = %d; want exactly 1 (no dueling standbys)", got)
	}

	// Epoch fencing: a push stamped with the dead primary's term —
	// however large its epoch — must be rejected with a promote naming
	// the new leader, and must not disturb the new primary's stamp.
	term, epoch := sb1.Term(), sb1.Epoch()
	conn, err := net.Dial("tcp", sb1.Addr())
	if err != nil {
		t.Fatalf("dial new primary: %v", err)
	}
	defer conn.Close()
	stale := ctrl{Type: kindReplicate, View: &fleetView{
		Term: oldTerm, Epoch: epoch + 1000, Primary: "127.0.0.1:9", Seeds: []string{"127.0.0.1:9"},
		Keys: keys, Owners: map[int]string{1: "zombie"}, Members: []viewMember{{Node: "zombie", Addr: "z:1", State: "live"}},
	}}
	if err := json.NewEncoder(conn).Encode(stale); err != nil {
		t.Fatalf("send stale replicate: %v", err)
	}
	var reply ctrl
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&reply); err != nil {
		t.Fatalf("read fencing reply: %v", err)
	}
	if reply.Type != kindPromote || reply.Addr != sb1.Addr() || reply.Term != term {
		t.Fatalf("stale push answered with %+v; want promote to %s at term %d", reply, sb1.Addr(), term)
	}
	if sb1.Term() != term || sb1.Epoch() != epoch || sb1.Role() != RolePrimary {
		t.Fatalf("stale push disturbed the primary: term %d→%d epoch %d→%d role %v",
			term, sb1.Term(), epoch, sb1.Epoch(), sb1.Role())
	}
	if _, ok := sb1.States()["zombie"]; ok {
		t.Fatal("stale membership leaked into the new primary")
	}
}

// TestNodeContinuityAcrossPromotion is the tentpole acceptance
// scenario: vehicles keep receiving advisories while the primary
// coordinator dies and a standby takes over — zero runner churn on
// the nodes — and the NEW primary then repairs a node crash.
func TestNodeContinuityAcrossPromotion(t *testing.T) {
	keys := []int{1, 2, 3, 4, 5, 6}
	reg := telemetry.NewRegistry()
	coords, seeds := startReplicaSet(t, keys, 1, reg)
	primary, standby := coords[0], coords[1]

	nodes := []*testNode{
		startNode(t, "n0", reg, seeds...),
		startNode(t, "n1", reg, seeds...),
	}
	defer func() {
		for _, n := range nodes {
			n.agent.Close()
			n.srv.Close()
		}
	}()
	waitFor(t, "full coverage over both nodes", func() bool {
		return coverage(nodes, keys)
	})
	waitFor(t, "standby fed", func() bool { return standby.Primary() == primary.Addr() })

	target := keys[0]
	cli, err := rsu.DialRetry(rsu.RetryConfig{
		Seeds:        []string{nodes[0].srv.Addr(), nodes[1].srv.Addr()},
		Vehicle:      "veh-1",
		Intersection: target,
		BackoffBase:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("DialRetry: %v", err)
	}
	defer cli.Close()
	var advisories, afterKill atomic.Int64
	var coordKilled atomic.Bool
	go func() {
		for msg := range cli.Messages() {
			if msg.Type != rsu.TypeAdvisory || msg.Intersection != target {
				continue
			}
			advisories.Add(1)
			if coordKilled.Load() {
				afterKill.Add(1)
			}
		}
	}()
	waitFor(t, "advisories before the coordinator kill", func() bool { return advisories.Load() >= 3 })

	ownedBefore := map[string][]int{
		"n0": nodes[0].agent.Owned(),
		"n1": nodes[1].agent.Owned(),
	}
	coordKilled.Store(true)
	primary.Close()
	waitFor(t, "standby promoted", func() bool { return standby.Role() == RolePrimary })
	waitFor(t, "both nodes re-bound to the new primary", func() bool {
		st := standby.States()
		return st["n0"] == Live && st["n1"] == Live &&
			reg.Counter("fleet_heartbeats_total", "").Value() > 0
	})
	// Continuity: the takeover must not have moved a single shard.
	for i, n := range nodes {
		got := n.agent.Owned()
		want := ownedBefore[n.id]
		if len(got) != len(want) {
			t.Fatalf("node %s churned shards across promotion: %v → %v", n.id, want, got)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("node %s churned shards across promotion: %v → %v", n.id, want, got)
			}
		}
		_ = i
	}
	waitFor(t, "advisories under the new primary", func() bool { return afterKill.Load() >= 3 })

	// Now a node dies under the NEW primary: it must still repair.
	victimID := standby.Assignments()[target]
	var victim, survivor *testNode
	for _, n := range nodes {
		if n.id == victimID {
			victim = n
		} else {
			survivor = n
		}
	}
	if victim == nil {
		t.Fatalf("intersection %d owned by unknown node %q", target, victimID)
	}
	victim.agent.Close()
	victim.srv.Close()
	waitFor(t, "survivor absorbs every shard under the new primary", func() bool {
		return coverage([]*testNode{survivor}, keys)
	})
	if got := reg.Counter("fleet_failovers_total", "").Value(); got != 1 {
		t.Fatalf("failovers = %d; want 1 (the node kill, not the coordinator kill)", got)
	}
}

// TestAgentFencesStaleAssignments drives Agent.apply directly with
// out-of-order (term, epoch) stamps: only strictly advancing stamps
// may move ownership, so a partitioned stale primary cannot steal
// shards back however fast it bumps its own epochs.
func TestAgentFencesStaleAssignments(t *testing.T) {
	srv, err := rsu.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("rsu listen: %v", err)
	}
	defer srv.Close()
	// Port 9 (discard) never answers: the agent idles in its dial loop
	// while the test feeds assignments in by hand.
	a, err := NewAgent("n1", srv, WithCoordinators("127.0.0.1:9"))
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	defer a.Close()

	assign := func(term, epoch int64, owned ...int) ctrl {
		return assignMsg(term, epoch, owned, map[int]string{})
	}
	check := func(wantTerm, wantEpoch int64, wantOwned int) {
		t.Helper()
		if a.Term() != wantTerm || a.Epoch() != wantEpoch || len(a.Owned()) != wantOwned {
			t.Fatalf("agent at (term %d, epoch %d, owned %v); want (%d, %d, %d shards)",
				a.Term(), a.Epoch(), a.Owned(), wantTerm, wantEpoch, wantOwned)
		}
	}

	a.apply(assign(2, 5, 1, 2))
	check(2, 5, 2)
	a.apply(assign(1, 50, 3)) // stale term, huge epoch: fenced
	check(2, 5, 2)
	a.apply(assign(2, 5, 3)) // replayed stamp: fenced
	check(2, 5, 2)
	a.apply(assign(2, 6, 1, 2, 3)) // same term, next epoch: applied
	check(2, 6, 3)
	a.apply(assign(3, 6, 1)) // next term, resumed epoch: applied
	check(3, 6, 1)
}
