package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"safecross/internal/rsu"
	"safecross/internal/telemetry"
)

// AgentConfig wires one node agent. NewAgent's options fill it.
type AgentConfig struct {
	// ID is the node's stable fleet identity (must be non-empty and
	// unique across the fleet — it is the rendezvous hashing input).
	ID string
	// Coordinators is the coordinator seed list. The agent sweeps it
	// until a primary accepts the registration, and follows promote
	// redirects to whichever seed currently leads.
	Coordinators []string
	// Advertise is the node's rsu.Server address as vehicles should
	// dial it; it travels in heartbeats and assignment tables.
	Advertise string
	// DebugAddr is the node's telemetry debug-listener address. It
	// travels in heartbeats so the coordinator's federator knows where
	// to scrape this node's metrics and traces. Empty opts the node out
	// of federation.
	DebugAddr string
	// Timings must match the coordinator's clock (only HeartbeatEvery
	// and SuspectAfter are used on the agent side).
	Timings Timings
	// DialTimeout bounds each coordinator dial (default 2s).
	DialTimeout time.Duration
	// Runner serves each owned intersection (nil: routing state only).
	Runner Runner
	// Metrics receives the agent's series (nil keeps a private
	// registry).
	Metrics *telemetry.Registry
	// Logger records session and shard events (nil discards).
	Logger *telemetry.Logger
}

// Runner serves one owned intersection until ctx is cancelled
// (typically: step a simulated world and broadcast advisories through
// the node's rsu.Server). A nil runner means the agent only maintains
// routing state.
type Runner func(ctx context.Context, intersection int)

type agentMetrics struct {
	rtt      *telemetry.Histogram
	assigns  *telemetry.Counter
	sessions *telemetry.Counter
}

// Agent binds one RSU process into the fleet: it registers with the
// coordinator, heartbeats, and turns assignment pushes into running
// shards plus rsu.Server routing state. A coordinator failover is
// survivable in place: a promote redirect re-targets the control
// connection to the new primary while every owned shard keeps
// serving.
type Agent struct {
	cfg     AgentConfig
	srv     *rsu.Server
	runner  Runner
	log     *telemetry.Logger
	metrics agentMetrics

	stop     chan struct{}
	stopOnce sync.Once
	loopWG   sync.WaitGroup
	runWG    sync.WaitGroup

	mu        sync.Mutex
	conn      net.Conn
	enc       *json.Encoder
	sendMu    sync.Mutex
	owned     map[int]context.CancelFunc
	term      int64
	epoch     int64
	target    string // last promote-announced primary; tried first
	draining  bool
	pendingHB time.Time // zero when no heartbeat awaits its ack
}

// NewAgent starts an agent for srv and begins sweeping the
// coordinator seed list (WithCoordinators). srv must be non-nil.
func NewAgent(id string, srv *rsu.Server, opts ...AgentOption) (*Agent, error) {
	cfg := AgentConfig{ID: id}
	for _, o := range opts {
		o.applyAgent(&cfg)
	}
	if cfg.ID == "" {
		return nil, fmt.Errorf("fleet: agent needs an ID")
	}
	if len(cfg.Coordinators) == 0 {
		return nil, fmt.Errorf("fleet: agent needs at least one coordinator address")
	}
	if srv == nil {
		return nil, fmt.Errorf("fleet: agent needs an rsu server")
	}
	cfg.Timings = cfg.Timings.withDefaults()
	if err := cfg.Timings.validate(); err != nil {
		return nil, err
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.Advertise == "" {
		cfg.Advertise = srv.Addr()
	}
	reg := nopIfNil(cfg.Metrics)
	a := &Agent{
		cfg:    cfg,
		srv:    srv,
		runner: cfg.Runner,
		log:    cfg.Logger,
		stop:   make(chan struct{}),
		owned:  make(map[int]context.CancelFunc),
		metrics: agentMetrics{
			rtt:      reg.Histogram(fmt.Sprintf("fleet_heartbeat_rtt_seconds{node=%q}", cfg.ID), "heartbeat send to coordinator ack", telemetry.UnitSeconds),
			assigns:  reg.Counter(fmt.Sprintf("fleet_assigns_total{node=%q}", cfg.ID), "assignment epochs applied"),
			sessions: reg.Counter(fmt.Sprintf("fleet_coordinator_sessions_total{node=%q}", cfg.ID), "control connections established to a coordinator"),
		},
	}
	a.loopWG.Add(1)
	go a.loop()
	return a, nil
}

// ID returns the agent's fleet identity.
func (a *Agent) ID() string { return a.cfg.ID }

// Epoch returns the last assignment epoch applied.
func (a *Agent) Epoch() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// Term returns the coordinator term of the last assignment applied.
func (a *Agent) Term() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.term
}

// Owned returns the intersections this node currently serves, sorted.
func (a *Agent) Owned() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]int, 0, len(a.owned))
	for i := range a.owned {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func (a *Agent) stopped() bool {
	select {
	case <-a.stop:
		return true
	default:
		return false
	}
}

func (a *Agent) isDraining() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.draining
}

// candidates returns the dial order for one sweep: the last
// promote-announced primary first, then the rest of the seed list.
func (a *Agent) candidates() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.cfg.Coordinators)+1)
	if a.target != "" {
		out = append(out, a.target)
	}
	for _, s := range a.cfg.Coordinators {
		if s != a.target {
			out = append(out, s)
		}
	}
	return out
}

// loop sweeps the coordinator seed list until the agent stops. A lost
// coordinator never stops serving: the current shards keep running on
// the last-known assignment while the agent redials. Backoff between
// sweeps is capped at the suspect threshold, so a node re-finds a
// freshly promoted primary before the new primary's failure detector
// rules on it.
func (a *Agent) loop() {
	defer a.loopWG.Done()
	backoff := a.cfg.Timings.HeartbeatEvery
	maxBackoff := a.cfg.Timings.SuspectAfter
	if maxBackoff < a.cfg.Timings.HeartbeatEvery {
		maxBackoff = a.cfg.Timings.HeartbeatEvery
	}
	for {
		if a.stopped() {
			return
		}
		connected := false
		for _, addr := range a.candidates() {
			conn, err := net.DialTimeout("tcp", addr, a.cfg.DialTimeout)
			if err != nil {
				a.log.Debugf("fleet: node %q cannot reach coordinator %s: %v", a.cfg.ID, addr, err)
				continue
			}
			connected = true
			a.metrics.sessions.Inc()
			again := a.session(conn)
			_ = conn.Close()
			if !again || a.stopped() {
				return
			}
			break // re-derive the sweep order: a promote may have re-targeted us
		}
		if connected {
			backoff = a.cfg.Timings.HeartbeatEvery
		}
		select {
		case <-a.stop:
			return
		case <-time.After(backoff):
		}
		if !connected {
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
	}
}

// session runs one control connection: register, heartbeat on the
// interval, apply whatever the coordinator pushes. It returns true to
// redial, false when the agent is done.
func (a *Agent) session(conn net.Conn) bool {
	enc := json.NewEncoder(conn)
	a.mu.Lock()
	a.conn, a.enc = conn, enc
	a.pendingHB = time.Time{}
	a.mu.Unlock()
	if err := a.sendHeartbeat(); err != nil {
		return true
	}

	in := make(chan rsu.Message, 16)
	quit := make(chan struct{})
	defer close(quit)
	go func() {
		defer close(in)
		dec := json.NewDecoder(bufio.NewReader(conn))
		for {
			var msg rsu.Message
			if err := dec.Decode(&msg); err != nil {
				return
			}
			select {
			case in <- msg:
			case <-quit:
				return
			}
		}
	}()

	tick := time.NewTicker(a.cfg.Timings.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-a.stop:
			return false
		case msg, ok := <-in:
			if !ok {
				a.log.Debugf("fleet: node %q lost the coordinator; redialing", a.cfg.ID)
				return true
			}
			switch msg.Type {
			case rsu.TypeHeartbeat:
				a.observeRTT()
			case rsu.TypeAssign:
				a.apply(msg)
			case rsu.TypePromote:
				// The primary moved. Re-target the control plane and
				// re-register there — WITHOUT touching the running
				// shards: ownership only changes on an assign or a
				// redirect.
				a.mu.Lock()
				a.target = msg.Addr
				a.mu.Unlock()
				a.log.Infof("fleet: node %q re-targeting coordinator %s (term %d)", a.cfg.ID, msg.Addr, msg.Term)
				return true
			case rsu.TypeRedirect:
				if a.isDraining() {
					// Drain raced death detection; either way the
					// shards are gone and the agent is done.
					return false
				}
				// Declared dead while partitioned: drop everything
				// (the shards belong to someone else) and rejoin as a
				// newcomer on a fresh connection.
				a.log.Warnf("fleet: node %q was declared dead; rejoining", a.cfg.ID)
				a.clearShards()
				return true
			}
		case <-tick.C:
			if err := a.sendHeartbeat(); err != nil {
				a.log.Debugf("fleet: node %q heartbeat failed: %v", a.cfg.ID, err)
				return true
			}
		}
	}
}

// sendHeartbeat writes one heartbeat on the current connection,
// stamping the RTT clock if no ack is outstanding.
func (a *Agent) sendHeartbeat() error {
	a.mu.Lock()
	conn, enc := a.conn, a.enc
	draining := a.draining
	if conn != nil && a.pendingHB.IsZero() {
		a.pendingHB = time.Now()
	}
	a.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("fleet: no coordinator connection")
	}
	msg := rsu.HeartbeatMessage(a.cfg.ID, a.cfg.Advertise, a.Epoch())
	msg.Draining = draining
	msg.DebugAddr = a.cfg.DebugAddr
	a.sendMu.Lock()
	defer a.sendMu.Unlock()
	_ = conn.SetWriteDeadline(time.Now().Add(a.cfg.DialTimeout))
	if err := enc.Encode(msg); err != nil {
		return err
	}
	_ = conn.SetWriteDeadline(time.Time{})
	return nil
}

// observeRTT folds a heartbeat ack into the RTT histogram.
func (a *Agent) observeRTT() {
	a.mu.Lock()
	var rtt time.Duration
	if !a.pendingHB.IsZero() {
		rtt = time.Since(a.pendingHB)
		a.pendingHB = time.Time{}
	}
	a.mu.Unlock()
	if rtt > 0 {
		a.metrics.rtt.ObserveDuration(rtt)
	}
}

// routeEpoch collapses the (term, epoch) fencing stamp into the single
// monotone value the rsu.Server's routing state is versioned by.
// Terms dominate: a promoted coordinator's first push outranks every
// epoch of the term before it, matching the lexicographic fence.
func routeEpoch(term, epoch int64) int64 { return term<<32 | epoch }

// apply installs one assignment epoch: start runners for newly owned
// intersections, cancel runners for shards that moved away, update
// the rsu.Server routing table, and redirect subscribers of departed
// shards to their new home. Assignments carry the issuing
// coordinator's (term, epoch) stamp; anything that does not strictly
// advance it is a stale primary's push and is dropped.
func (a *Agent) apply(msg rsu.Message) {
	if msg.Validate() != nil {
		return
	}
	term := msg.Term
	if term < 1 {
		term = 1 // pre-replication coordinators did not stamp terms
	}
	newOwned := make(map[int]bool, len(msg.Owned))
	for _, i := range msg.Owned {
		newOwned[i] = true
	}
	a.mu.Lock()
	if term < a.term || (term == a.term && msg.Epoch <= a.epoch) {
		a.mu.Unlock()
		return
	}
	a.term, a.epoch = term, msg.Epoch
	var started, stopped []int
	for i, cancel := range a.owned {
		if !newOwned[i] {
			cancel()
			delete(a.owned, i)
			stopped = append(stopped, i)
		}
	}
	for i := range newOwned {
		if _, ok := a.owned[i]; ok {
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		a.owned[i] = cancel
		started = append(started, i)
		if a.runner != nil {
			a.runWG.Add(1)
			go func(i int) {
				defer a.runWG.Done()
				a.runner(ctx, i)
			}(i)
		} else {
			cancel() // nothing holds the context; avoid a vet leak
		}
	}
	a.mu.Unlock()

	a.srv.SetRoutes(routeEpoch(term, msg.Epoch), msg.Owned, msg.Table)
	sort.Ints(stopped)
	for _, i := range stopped {
		if addr := msg.Table[i]; addr != "" && addr != a.cfg.Advertise {
			a.srv.RedirectIntersection(i, addr)
		}
	}
	a.metrics.assigns.Inc()
	sort.Ints(started)
	a.log.Infof("fleet: node %q term %d epoch %d: +%v -%v (owns %d)", a.cfg.ID, term, msg.Epoch, started, stopped, len(newOwned))
}

// clearShards cancels every runner and forgets ownership — used when
// the coordinator rejects us as dead and our shards live elsewhere.
func (a *Agent) clearShards() {
	a.mu.Lock()
	for i, cancel := range a.owned {
		cancel()
		delete(a.owned, i)
	}
	a.mu.Unlock()
	a.runWG.Wait()
}

// Drain leaves the fleet gracefully: it tells the coordinator to move
// this node's shards, waits (bounded by ctx) until the final empty
// assignment lands and the last runner exits, then stops the agent.
// The rsu.Server and serving plane are the caller's to close — Drain
// only hands off fleet ownership.
func (a *Agent) Drain(ctx context.Context) error {
	a.mu.Lock()
	already := a.draining
	a.draining = true
	epoch0 := a.epoch
	a.mu.Unlock()
	if !already {
		// Nudge the coordinator now rather than waiting a tick; if the
		// connection is down, the next session registers as draining.
		_ = a.sendHeartbeat()
	}
	var err error
wait:
	for {
		// Done when the coordinator acknowledged the drain — the
		// reassignment it triggers always pushes us a fresh (empty)
		// epoch — and every runner's shard is gone. Waiting for the
		// epoch, not just an empty owned set, keeps a node that owned
		// nothing from racing its own goodbye off the wire. Epochs
		// survive promotions monotonically, so the comparison holds
		// even when the drain spans a coordinator failover.
		a.mu.Lock()
		done := a.epoch > epoch0 && len(a.owned) == 0
		a.mu.Unlock()
		if done {
			break
		}
		select {
		case <-ctx.Done():
			err = fmt.Errorf("fleet: drain: %w", ctx.Err())
			break wait
		case <-time.After(2 * time.Millisecond):
		}
	}
	a.close()
	return err
}

// Close stops the agent immediately (no handoff — the coordinator's
// failure detector will move the shards). It is what a crash looks
// like from the fleet's point of view, and the fault-injection hook
// the fleet binary uses.
func (a *Agent) Close() error {
	a.close()
	return nil
}

func (a *Agent) close() {
	a.stopOnce.Do(func() {
		close(a.stop)
		a.mu.Lock()
		conn := a.conn
		a.mu.Unlock()
		if conn != nil {
			_ = conn.Close()
		}
	})
	a.loopWG.Wait()
	a.clearShards()
}
