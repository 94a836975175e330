package fleet

import (
	"bufio"
	"encoding/json"
	"net"
	"testing"
	"time"

	"safecross/internal/telemetry"
)

// Crash-restart coverage: the whole control plane — primary and every
// standby — dies at once and is reborn from its write-ahead logs,
// plus the quorum-vote edge cases that keep elections honest.

// TestControlPlaneRestartFromWAL kills primary and both standbys
// mid-run and restarts them from the same data directory at the same
// addresses. The reborn primary must resume at a HIGHER term with the
// epoch intact, nodes must keep their shards (no runner churn), and
// every reborn coordinator must count a WAL replay.
func TestControlPlaneRestartFromWAL(t *testing.T) {
	keys := []int{1, 2, 3, 4, 5, 6}
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	tt := testTimings()
	hb := WithHeartbeat(tt.HeartbeatEvery, tt.SuspectAfter, tt.DeadAfter)
	durable := []CoordinatorOption{hb, WithMetrics(reg), WithDataDir(dir), WithWALSyncEvery(time.Millisecond)}

	var sbs []*Coordinator
	var sbAddrs []string
	for i := 0; i < 2; i++ {
		sb, err := NewCoordinator("127.0.0.1:0", append([]CoordinatorOption{AsStandby()}, durable...)...)
		if err != nil {
			t.Fatalf("standby %d: %v", i, err)
		}
		sbs = append(sbs, sb)
		sbAddrs = append(sbAddrs, sb.Addr())
	}
	primary, err := NewCoordinator("127.0.0.1:0",
		append([]CoordinatorOption{WithIntersections(keys...), WithStandbys(sbAddrs...)}, durable...)...)
	if err != nil {
		t.Fatalf("primary: %v", err)
	}
	seeds := append([]string{primary.Addr()}, sbAddrs...)

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
	// Coverage alone is true while the first-registered node still owns
	// everything; the baseline must be the settled TWO-node split or the
	// continuity check below compares against a stale epoch.
	waitFor(t, "full coverage split over both nodes", func() bool {
		return coverage(nodes, keys) &&
			len(nodes[0].agent.Owned()) >= 1 && len(nodes[1].agent.Owned()) >= 1
	})
	waitFor(t, "standbys fed", func() bool {
		return sbs[0].Primary() == primary.Addr() && sbs[1].Primary() == primary.Addr()
	})
	oldTerm, oldEpoch := primary.Term(), primary.Epoch()
	ownedBefore := map[string][]int{
		"n0": nodes[0].agent.Owned(),
		"n1": nodes[1].agent.Owned(),
	}
	waitFor(t, "state durable in every wal", func() bool {
		// Standbys persist only once the primary's commit watermark
		// covers the epoch they applied, so all three logs must be
		// caught up before the world may end.
		dt, de := primary.wal.Durable()
		if dt != oldTerm || de != oldEpoch {
			return false
		}
		for _, sb := range sbs {
			if st, se := sb.wal.Durable(); st != oldTerm || se != oldEpoch {
				return false
			}
		}
		return true
	})

	// The world ends: every coordinator dies at once.
	primary.Close()
	for _, sb := range sbs {
		sb.Close()
	}

	// And is reborn at the same addresses from the same data dir.
	var reborn []*Coordinator
	for _, addr := range sbAddrs {
		sb, err := NewCoordinator(addr, append([]CoordinatorOption{AsStandby()}, durable...)...)
		if err != nil {
			t.Fatalf("reborn standby %s: %v", addr, err)
		}
		t.Cleanup(func() { sb.Close() })
		reborn = append(reborn, sb)
	}
	np, err := NewCoordinator(primary.Addr(),
		append([]CoordinatorOption{WithIntersections(keys...), WithStandbys(sbAddrs...)}, durable...)...)
	if err != nil {
		t.Fatalf("reborn primary: %v", err)
	}
	t.Cleanup(func() { np.Close() })

	if got := np.Term(); got <= oldTerm {
		t.Fatalf("reborn primary term = %d; want > %d (a restart is a new incarnation)", got, oldTerm)
	}
	if got := np.Epoch(); got < oldEpoch {
		t.Fatalf("reborn primary epoch regressed: %d → %d", oldEpoch, got)
	}
	if got := countOwned(np.Assignments(), "n0") + countOwned(np.Assignments(), "n1"); got != len(keys) {
		t.Fatalf("reborn primary replayed %d of %d assignments", got, len(keys))
	}
	if got := reg.Counter("fleet_wal_replays_total", "").Value(); got < 3 {
		t.Fatalf("fleet_wal_replays_total = %d; want >= 3 (every reborn coordinator)", got)
	}
	waitFor(t, "nodes re-bound to the reborn primary", func() bool {
		st := np.States()
		return st["n0"] == Live && st["n1"] == Live
	})
	// Continuity: the restart must not have moved a single shard.
	for _, n := range nodes {
		got := n.agent.Owned()
		want := ownedBefore[n.id]
		if len(got) != len(want) {
			t.Fatalf("node %s churned shards across restart: %v → %v", n.id, want, got)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("node %s churned shards across restart: %v → %v", n.id, want, got)
			}
		}
	}
	waitFor(t, "reborn standbys follow the reborn primary", func() bool {
		return reborn[0].Primary() == np.Addr() && reborn[1].Primary() == np.Addr()
	})
	// Epochs must keep advancing monotonically from the replayed stamp.
	waitFor(t, "epochs advance after restart", func() bool { return np.Epoch() >= oldEpoch })
}

// sendVote dials addr as a candidate and returns the decoded ack.
func sendVote(t *testing.T, addr string, term, epoch int64) ctrl {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial voter: %v", err)
	}
	defer conn.Close()
	if err := json.NewEncoder(conn).Encode(voteMsg("127.0.0.1:65000", term, epoch)); err != nil {
		t.Fatalf("send ballot: %v", err)
	}
	var reply ctrl
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&reply); err != nil {
		t.Fatalf("read ack: %v", err)
	}
	return reply
}

// TestQuorumDeniedByLivePrimary sends a ballot to a standby that still
// hears its primary: the vote must be denied — a live replicate stream
// outranks any candidate's silence story.
func TestQuorumDeniedByLivePrimary(t *testing.T) {
	reg := telemetry.NewRegistry()
	coords, _ := startReplicaSet(t, []int{1, 2}, 2, reg)
	primary, sb := coords[0], coords[1]
	waitFor(t, "standby fed", func() bool { return sb.Primary() == primary.Addr() })

	reply := sendVote(t, sb.Addr(), sb.Term()+1, sb.Epoch())
	if reply.Type != kindAck || reply.Granted {
		t.Fatalf("standby that hears its primary answered %+v; want a denied ack", reply)
	}
	// The primary itself must also deny — it is the living refutation.
	reply = sendVote(t, primary.Addr(), primary.Term()+1, primary.Epoch())
	if reply.Type != kindAck || reply.Granted {
		t.Fatalf("live primary answered %+v; want a denied ack", reply)
	}
	if got := reg.Counter("fleet_quorum_votes_total", "").Value(); got != 0 {
		t.Fatalf("fleet_quorum_votes_total = %d; want 0 granted votes", got)
	}
}

// TestQuorumNoPromotionWithoutMajority isolates the last standby of a
// three-coordinator fleet: with the primary AND the other standby
// dead it can only ever collect its own vote, so it must never
// promote — a minority partition stays a standby forever rather than
// risk a split brain.
func TestQuorumNoPromotionWithoutMajority(t *testing.T) {
	reg := telemetry.NewRegistry()
	coords, _ := startReplicaSet(t, []int{1, 2, 3}, 2, reg)
	primary, sb1, sb2 := coords[0], coords[1], coords[2]
	waitFor(t, "standbys fed", func() bool {
		return sb1.Primary() == primary.Addr() && sb2.Primary() == primary.Addr()
	})
	primary.Close()
	sb2.Close()
	// Give the survivor several election cycles' worth of time to (not)
	// promote itself.
	time.Sleep(8 * testTimings().DeadAfter)
	if sb1.Role() != RoleStandby {
		t.Fatalf("minority standby promoted itself to %v with 1 of 3 votes reachable", sb1.Role())
	}
	if got := reg.Counter("fleet_promotions_total", "").Value(); got != 0 {
		t.Fatalf("fleet_promotions_total = %d; want 0", got)
	}
	if got := reg.Counter("fleet_quorum_elections_total", "").Value(); got < 1 {
		t.Fatalf("fleet_quorum_elections_total = %d; want >= 1 (it must at least TRY)", got)
	}
}

// TestTwoCoordinatorTimeoutFallback: with only two coordinators a
// majority of "the others" is one dead peer, so quorum would wedge
// promotion forever. The standby must fall back to the rank-staggered
// timeout path and promote WITHOUT quorum votes.
func TestTwoCoordinatorTimeoutFallback(t *testing.T) {
	reg := telemetry.NewRegistry()
	coords, _ := startReplicaSet(t, []int{1, 2}, 1, reg)
	primary, sb := coords[0], coords[1]
	waitFor(t, "standby fed", func() bool { return sb.Primary() == primary.Addr() })
	oldTerm := primary.Term()

	primary.Close()
	waitFor(t, "standby promoted via timeout", func() bool { return sb.Role() == RolePrimary })
	if got := sb.Term(); got != oldTerm+1 {
		t.Fatalf("promoted term = %d; want %d", got, oldTerm+1)
	}
	if got := reg.Counter("fleet_quorum_promotions_total", "").Value(); got != 0 {
		t.Fatalf("fleet_quorum_promotions_total = %d; want 0 (timeout path)", got)
	}
	if got := reg.Counter("fleet_promotions_total", "").Value(); got != 1 {
		t.Fatalf("fleet_promotions_total = %d; want 1", got)
	}
}

// TestQuorumPromotionCountsVotes re-checks the three-coordinator
// takeover through the metrics: the election must be won by quorum
// (granted votes > 0, quorum promotion counted), not by timeout.
func TestQuorumPromotionCountsVotes(t *testing.T) {
	reg := telemetry.NewRegistry()
	coords, _ := startReplicaSet(t, []int{1, 2, 3, 4}, 2, reg)
	primary, sb1, sb2 := coords[0], coords[1], coords[2]
	waitFor(t, "standbys fed", func() bool {
		return sb1.Primary() == primary.Addr() && sb2.Primary() == primary.Addr()
	})
	primary.Close()
	waitFor(t, "a standby promoted", func() bool {
		return sb1.Role() == RolePrimary || sb2.Role() == RolePrimary
	})
	waitFor(t, "promotion attributed to quorum", func() bool {
		return reg.Counter("fleet_quorum_promotions_total", "").Value() == 1
	})
	if got := reg.Counter("fleet_quorum_votes_total", "").Value(); got < 1 {
		t.Fatalf("fleet_quorum_votes_total = %d; want >= 1 granted vote", got)
	}
}
