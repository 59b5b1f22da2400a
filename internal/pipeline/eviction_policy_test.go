package pipeline

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hash"
)

// policyModel is the reference implementation the real policies are
// checked against: a plain ordered slice, no free lists, no intrusive
// links — slow and obviously correct.
type policyModel struct {
	order []core.FlowKey // LRU/idle: recency (front = most recent); FIFO: admission (front = newest)
	last  map[core.FlowKey]uint64
	kind  string // "lru", "fifo", "idle"
	cap   int
	tmo   uint64
}

func (m *policyModel) touch(flow core.FlowKey, now uint64) []Eviction {
	if _, ok := m.last[flow]; ok {
		m.last[flow] = now
		if m.kind != "fifo" { // admission order is sticky under FIFO
			for i, f := range m.order {
				if f == flow {
					m.order = append(m.order[:i], m.order[i+1:]...)
					break
				}
			}
			m.order = append([]core.FlowKey{flow}, m.order...)
		}
	} else {
		m.last[flow] = now
		m.order = append([]core.FlowKey{flow}, m.order...)
	}
	var out []Eviction
	if m.kind == "idle" {
		for len(m.order) > 0 {
			tail := m.order[len(m.order)-1]
			if now-m.last[tail] <= m.tmo {
				break
			}
			out = append(out, Eviction{Flow: tail, Reason: EvictIdle, LastSeen: m.last[tail]})
			m.order = m.order[:len(m.order)-1]
			delete(m.last, tail)
		}
		return out
	}
	for len(m.order) > m.cap {
		tail := m.order[len(m.order)-1]
		out = append(out, Eviction{Flow: tail, Reason: EvictCapacity, LastSeen: m.last[tail]})
		m.order = m.order[:len(m.order)-1]
		delete(m.last, tail)
	}
	return out
}

// admitted returns how many flows a built-in policy currently admits.
func admitted(p EvictionPolicy) int {
	switch p := p.(type) {
	case *lru:
		return p.t.len()
	case *maxFlows:
		return p.t.len()
	case *idleTimeout:
		return p.t.len()
	}
	panic("not a built-in policy")
}

// TestPolicyAgainstModel drives each built-in policy and its reference
// model with the same randomized flow sequence and requires identical
// eviction sequences (flow, reason, and last-seen clock) at every step,
// plus the structural invariants: the touched flow is never a victim, the
// live-flow count respects the cap, and a victim is really removed (its
// next arrival re-admits it).
func TestPolicyAgainstModel(t *testing.T) {
	cases := []struct {
		name  string
		mk    func() EvictionPolicy
		model func() *policyModel
	}{
		{"lru-cap8", func() EvictionPolicy { return NewLRU(8) },
			func() *policyModel { return &policyModel{kind: "lru", cap: 8, last: map[core.FlowKey]uint64{}} }},
		{"lru-cap1", func() EvictionPolicy { return NewLRU(1) },
			func() *policyModel { return &policyModel{kind: "lru", cap: 1, last: map[core.FlowKey]uint64{}} }},
		{"maxflows-cap8", func() EvictionPolicy { return NewMaxFlows(8) },
			func() *policyModel { return &policyModel{kind: "fifo", cap: 8, last: map[core.FlowKey]uint64{}} }},
		{"idle-20", func() EvictionPolicy { return NewIdleTimeout(20) },
			func() *policyModel {
				return &policyModel{kind: "idle", tmo: 20, cap: 1 << 30, last: map[core.FlowKey]uint64{}}
			}},
		{"idle-1", func() EvictionPolicy { return NewIdleTimeout(1) },
			func() *policyModel {
				return &policyModel{kind: "idle", tmo: 1, cap: 1 << 30, last: map[core.FlowKey]uint64{}}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol, model := tc.mk(), tc.model()
			rng := hash.NewRNG(77)
			evicted := map[core.FlowKey]int{} // live evictions since last admission
			var vict []Eviction
			var now uint64
			for step := 0; step < 20000; step++ {
				// Skewed flow choice: a few hot flows, a long random tail.
				var flow core.FlowKey
				if rng.Bool(0.7) {
					flow = core.FlowKey(rng.Intn(6) + 1)
				} else {
					flow = core.FlowKey(rng.Intn(64) + 1)
				}
				now++
				vict = pol.Touch(flow, now, vict[:0])
				want := model.touch(flow, now)
				if len(vict) != len(want) {
					t.Fatalf("step %d: %d victims, model wants %d (%v vs %v)", step, len(vict), len(want), vict, want)
				}
				for i := range vict {
					if vict[i] != want[i] {
						t.Fatalf("step %d victim %d: %+v, model wants %+v", step, i, vict[i], want[i])
					}
					if vict[i].Flow == flow {
						t.Fatalf("step %d: policy evicted the flow just touched", step)
					}
					if evicted[vict[i].Flow] != 0 {
						t.Fatalf("step %d: flow %d evicted twice without re-admission", step, vict[i].Flow)
					}
					evicted[vict[i].Flow]++
				}
				delete(evicted, flow) // touching (re-)admits
				if admitted(pol) != len(model.last) {
					t.Fatalf("step %d: policy tracks %d flows, model %d", step, admitted(pol), len(model.last))
				}
			}
		})
	}
}

// TestPolicyTouchZeroAlloc pins the steady-state cost of the policy
// bookkeeping: once the flow set is stable, Touch allocates nothing.
func TestPolicyTouchZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  EvictionPolicy
	}{
		{"lru", NewLRU(64)},
		{"maxflows", NewMaxFlows(64)},
		{"idle", NewIdleTimeout(1 << 20)},
	} {
		vict := make([]Eviction, 0, 8)
		var now uint64
		for f := 0; f < 64; f++ { // warm the table and the free list
			now++
			vict = tc.pol.Touch(core.FlowKey(f+1), now, vict[:0])
		}
		allocs := testing.AllocsPerRun(1000, func() {
			now++
			vict = tc.pol.Touch(core.FlowKey(int(now)%64+1), now, vict[:0])
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state Touch allocates %.1f/op, want 0", tc.name, allocs)
		}
	}
}

// shardModels predicts each shard's eviction sequence by replaying the
// ingest stream through per-shard reference models, using the sink's own
// flow→shard mapping.
func shardModels(pkts []core.PacketDigest, shards int, mk func() *policyModel) [][]Eviction {
	models := make([]*policyModel, shards)
	clocks := make([]uint64, shards)
	out := make([][]Eviction, shards)
	for i := range models {
		models[i] = mk()
	}
	for i := range pkts {
		sh := int(hash.Mix64(uint64(pkts[i].Flow)) % uint64(shards))
		clocks[sh]++
		out[sh] = append(out[sh], models[sh].touch(pkts[i].Flow, clocks[sh])...)
	}
	return out
}

// TestSinkEvictionCallback runs bounded sinks over a real encoded stream
// and checks the end-to-end eviction contract: the callback receives
// exactly the model-predicted eviction sequence per shard (every evicted
// flow, exactly once per admission, in order), the flow's state is still
// queryable inside the callback, and the per-shard flow tables never
// exceed the cap.
func TestSinkEvictionCallback(t *testing.T) {
	eng, _, lat, _, _, _ := testPlan(t, 701)
	const (
		nFlows = 48
		k      = 6
		cap    = 8
	)
	pkts := encodeWorkload(eng, 19, nFlows, 200, k)
	for _, tc := range []struct {
		kind   string // policyModel's name for the policy
		mk     func() EvictionPolicy
		shards int
	}{
		{"lru", func() EvictionPolicy { return NewLRU(cap) }, 1},
		{"lru", func() EvictionPolicy { return NewLRU(cap) }, 3},
		{"fifo", func() EvictionPolicy { return NewMaxFlows(cap) }, 1}, // the serial bounded-flow shape
	} {
		shards := tc.shards
		want := shardModels(pkts, shards, func() *policyModel {
			return &policyModel{kind: tc.kind, cap: cap, last: map[core.FlowKey]uint64{}}
		})

		var mu sync.Mutex
		got := make([][]Eviction, shards)
		recOf := map[*core.Recording]int{}
		sink, err := NewSink(eng, Config{
			Shards: shards, BatchSize: 32, SketchItems: 16, Base: 5,
			Policy: tc.mk,
			OnEvict: func(ev Eviction, rec *core.Recording) {
				// The flow's state must still be present and queryable at
				// callback time — it is dropped only after we return.
				live := rec.HasFlow(ev.Flow)
				for hop := 1; hop <= k; hop++ {
					rec.LatencySamples(lat, ev.Flow, hop)
				}
				mu.Lock()
				defer mu.Unlock()
				if !live {
					t.Errorf("flow %d already dropped when its eviction callback ran", ev.Flow)
				}
				got[recOf[rec]] = append(got[recOf[rec]], ev)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, sh := range sink.shards {
			recOf[sh.rec] = i
		}
		sink.Ingest(pkts)
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%s shards=%d shard %d: %d evictions, model wants %d", tc.kind, shards, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%s shards=%d shard %d eviction %d: %+v, model wants %+v", tc.kind, shards, i, j, got[i][j], want[i][j])
				}
			}
			if n := sink.shards[i].rec.TrackedFlows(); n > cap {
				t.Fatalf("%s shards=%d shard %d: %d tracked flows exceed cap %d", tc.kind, shards, i, n, cap)
			}
			if n := admitted(sink.shards[i].pol); n != sink.shards[i].rec.TrackedFlows() {
				t.Fatalf("%s shards=%d shard %d: policy tracks %d flows, recording %d", tc.kind, shards, i, n, sink.shards[i].rec.TrackedFlows())
			}
		}
	}
}

// TestSinkIdleFinalizedOnce checks the idle policy end to end: a flow
// that goes quiet is finalized exactly once per incarnation — once after
// it first goes idle, gone from the recording until it re-arrives, and
// once more when the re-arrived incarnation goes idle again. Background
// flows that never pause are never finalized.
func TestSinkIdleFinalizedOnce(t *testing.T) {
	eng, _, _, _, _, _ := testPlan(t, 801)
	const k = 6
	quiet := encodeWorkload(eng, 23, 1, 40, k) // one flow that then goes silent
	idleFlow := quiet[0].Flow
	// Background traffic keeps the shard clock ticking; drop any packet
	// that happens to share the idle flow's key.
	background := encodeWorkload(eng, 29, 10, 80, k)
	bg := background[:0]
	for _, p := range background {
		if p.Flow != idleFlow {
			bg = append(bg, p)
		}
	}

	var mu sync.Mutex
	finalized := map[core.FlowKey]int{}
	callbacks, stillLive := 0, 0
	sink, err := NewSink(eng, Config{
		Shards: 1, BatchSize: 16, Base: 3,
		Policy: func() EvictionPolicy { return NewIdleTimeout(100) },
		OnEvict: func(ev Eviction, rec *core.Recording) {
			mu.Lock()
			defer mu.Unlock()
			finalized[ev.Flow]++
			callbacks++
			if rec.HasFlow(ev.Flow) {
				stillLive++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sink.Ingest(quiet)
	sink.Ingest(bg) // idleFlow expires ~100 packets in
	sink.Ingest(quiet)
	sink.Ingest(bg) // the re-arrived incarnation expires again
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if finalized[idleFlow] != 2 {
		t.Fatalf("idle flow finalized %d times across 2 idle incarnations, want 2", finalized[idleFlow])
	}
	if stillLive != callbacks {
		t.Fatalf("%d of %d callbacks saw live state, want all", stillLive, callbacks)
	}
	for f, n := range finalized {
		if f != idleFlow && n != 0 {
			t.Fatalf("background flow %d finalized %d times; it was never idle", f, n)
		}
	}
	// The second expiry already dropped the flow: its state is gone, and
	// the policy and recording agree on the live set.
	if sink.Recording(idleFlow).HasFlow(idleFlow) {
		t.Fatal("idle flow still has state after its second expiry")
	}
	if admitted(sink.shards[0].pol) != sink.shards[0].rec.TrackedFlows() {
		t.Fatal("recording and policy disagree on live flows")
	}
}
