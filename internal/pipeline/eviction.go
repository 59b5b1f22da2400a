package pipeline

import (
	"fmt"

	"repro/internal/core"
)

// This file makes the collector's flow-state management an explicit,
// pluggable admission/eviction policy instead of an accident of map
// growth (the BASEL framing): each shard owns one EvictionPolicy instance
// over its private flow table, the policy decides which flows' state to
// finalize, and the sink surfaces every finalized flow through a callback
// so bounding memory never silently discards answers.

// EvictReason says why a flow was evicted.
type EvictReason uint8

const (
	// EvictCapacity: the policy's flow cap was exceeded and this flow was
	// the victim (least-recently-used or oldest-admitted, per policy).
	EvictCapacity EvictReason = iota
	// EvictIdle: the flow saw no packets for longer than the idle timeout.
	EvictIdle
)

// String implements fmt.Stringer.
func (r EvictReason) String() string {
	switch r {
	case EvictCapacity:
		return "capacity"
	case EvictIdle:
		return "idle"
	default:
		return fmt.Sprintf("EvictReason(%d)", uint8(r))
	}
}

// Eviction describes one finalized flow.
type Eviction struct {
	Flow core.FlowKey
	// Reason is why the policy chose this flow.
	Reason EvictReason
	// LastSeen is the policy clock (the owning shard's packet count) at
	// the flow's most recent packet.
	LastSeen uint64
}

// EvictionPolicy decides which flows keep live collector state. A policy
// instance is owned by exactly one shard worker and needs no internal
// locking; its clock is the shard's packet count, so policies behave
// identically regardless of wall-clock speed or shard count.
//
// The contract the sink (and the property tests) hold every policy to:
//
//   - Touch(flow, ...) never returns the touched flow as a victim,
//   - a victim is removed from the policy's table as it is returned, so a
//     flow is evicted at most once per admission (re-arrival re-admits it
//     as a fresh flow),
//   - Flows() never exceeds the policy's configured cap after Touch
//     returns.
type EvictionPolicy interface {
	// Touch records that flow had a packet at clock now, admitting it if
	// new, and appends any flows to evict to victims (typically
	// victims[:0] of a reused buffer), returning the extended slice.
	Touch(flow core.FlowKey, now uint64, victims []Eviction) []Eviction
}

// flowTable is the shared engine of the built-in policies: a map from
// flow to node joined with an intrusive doubly-linked list over a slice,
// plus a free list, so steady-state touches allocate nothing.
type flowTable struct {
	idx   map[core.FlowKey]int32
	nodes []flowNode
	head  int32 // most recent (LRU/idle) or newest admitted (FIFO)
	tail  int32 // least recent / oldest admitted
	free  []int32
}

type flowNode struct {
	flow       core.FlowKey
	last       uint64
	prev, next int32
}

const nilNode = int32(-1)

func newFlowTable() flowTable {
	return flowTable{idx: map[core.FlowKey]int32{}, head: nilNode, tail: nilNode}
}

func (t *flowTable) len() int { return len(t.idx) }

// pushFront links node i at the head.
func (t *flowTable) pushFront(i int32) {
	n := &t.nodes[i]
	n.prev, n.next = nilNode, t.head
	if t.head != nilNode {
		t.nodes[t.head].prev = i
	}
	t.head = i
	if t.tail == nilNode {
		t.tail = i
	}
}

// unlink removes node i from the list (the node stays allocated).
func (t *flowTable) unlink(i int32) {
	n := &t.nodes[i]
	if n.prev != nilNode {
		t.nodes[n.prev].next = n.next
	} else {
		t.head = n.next
	}
	if n.next != nilNode {
		t.nodes[n.next].prev = n.prev
	} else {
		t.tail = n.prev
	}
}

// admit inserts a new flow at the head and returns its node index.
func (t *flowTable) admit(flow core.FlowKey, now uint64) int32 {
	var i int32
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		t.nodes = append(t.nodes, flowNode{})
		i = int32(len(t.nodes) - 1)
	}
	t.nodes[i] = flowNode{flow: flow, last: now}
	t.idx[flow] = i
	t.pushFront(i)
	return i
}

// evictTail removes the tail flow and returns its eviction record.
func (t *flowTable) evictTail(reason EvictReason) Eviction {
	i := t.tail
	n := t.nodes[i]
	t.unlink(i)
	delete(t.idx, n.flow)
	t.free = append(t.free, i)
	return Eviction{Flow: n.flow, Reason: reason, LastSeen: n.last}
}

// lru evicts the least-recently-used flow beyond a cap.
type lru struct {
	t   flowTable
	cap int
}

// NewLRU returns a policy that admits every flow and, whenever more than
// maxFlows are live, evicts the least-recently-used one. maxFlows must be
// at least 1.
func NewLRU(maxFlows int) EvictionPolicy {
	if maxFlows < 1 {
		panic("pipeline: NewLRU needs maxFlows >= 1")
	}
	return &lru{t: newFlowTable(), cap: maxFlows}
}

func (p *lru) Touch(flow core.FlowKey, now uint64, victims []Eviction) []Eviction {
	if i, ok := p.t.idx[flow]; ok {
		p.t.nodes[i].last = now
		if p.t.head != i {
			p.t.unlink(i)
			p.t.pushFront(i)
		}
		return victims
	}
	p.t.admit(flow, now)
	for p.t.len() > p.cap {
		victims = append(victims, p.t.evictTail(EvictCapacity))
	}
	return victims
}

// maxFlows evicts the oldest-admitted flow beyond a cap (FIFO): recency
// does not rescue a flow, so a long-lived elephant eventually yields its
// slot — the admission-order analogue of the LRU policy.
type maxFlows struct {
	t   flowTable
	cap int
}

// NewMaxFlows returns a policy with a hard cap on live flows that evicts
// in admission order. maxFlows must be at least 1.
func NewMaxFlows(cap int) EvictionPolicy {
	if cap < 1 {
		panic("pipeline: NewMaxFlows needs a cap >= 1")
	}
	return &maxFlows{t: newFlowTable(), cap: cap}
}

func (p *maxFlows) Touch(flow core.FlowKey, now uint64, victims []Eviction) []Eviction {
	if i, ok := p.t.idx[flow]; ok {
		p.t.nodes[i].last = now // position (admission order) is kept
		return victims
	}
	p.t.admit(flow, now)
	for p.t.len() > p.cap {
		victims = append(victims, p.t.evictTail(EvictCapacity))
	}
	return victims
}

// idleTimeout evicts flows that saw no packets for more than `timeout`
// ticks of the shard clock.
type idleTimeout struct {
	t       flowTable
	timeout uint64
}

// NewIdleTimeout returns a policy that finalizes a flow once it has been
// idle for more than timeout packets of shard traffic. timeout must be at
// least 1. The policy is lazy: expirations surface on the next packet the
// shard processes, which is exactly when memory pressure can next grow.
func NewIdleTimeout(timeout uint64) EvictionPolicy {
	if timeout < 1 {
		panic("pipeline: NewIdleTimeout needs timeout >= 1")
	}
	return &idleTimeout{t: newFlowTable(), timeout: timeout}
}

func (p *idleTimeout) Touch(flow core.FlowKey, now uint64, victims []Eviction) []Eviction {
	if i, ok := p.t.idx[flow]; ok {
		p.t.nodes[i].last = now
		if p.t.head != i {
			p.t.unlink(i)
			p.t.pushFront(i)
		}
	} else {
		p.t.admit(flow, now)
	}
	// The recency list is sorted by last-touch, so expired flows cluster
	// at the tail; pop until the tail is live. The flow just touched is
	// at the head with last == now, never expired (timeout >= 1).
	for p.t.tail != nilNode {
		n := &p.t.nodes[p.t.tail]
		if now-n.last <= p.timeout {
			break
		}
		victims = append(victims, p.t.evictTail(EvictIdle))
	}
	return victims
}
