package collector

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// fixedRoster is a FleetRoster over literal addresses.
type fixedRoster struct {
	epoch uint64
	addrs []string
}

func (r fixedRoster) FleetEpoch() uint64    { return r.epoch }
func (r fixedRoster) IngestAddrs() []string { return r.addrs }
func (r fixedRoster) FlowHome(f core.FlowKey) int {
	return int(uint64(f) % uint64(len(r.addrs)))
}

// TestFailedRehomeIsStickyAndLoud pins what a reroute that cannot finish
// leaves behind. The exporter holds routed-but-unsent packets when the
// fence nudges it; the rehome then fails (the map fetch never delivers,
// or the fetched map names a member that refuses the dial). The packets
// were never delivered, so nothing may report success afterwards: the
// Send that trips the rehome, and every Send, Flush, Poke and Close after
// it, return that failure — and none of them dereferences the sessions
// the rehome closed.
func TestFailedRehomeIsStickyAndLoud(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refusing := ln.Addr().String()
	ln.Close()

	cases := map[string]func(live string) func() (FleetRoster, error){
		"fetch keeps failing": func(string) func() (FleetRoster, error) {
			return func() (FleetRoster, error) { return nil, errors.New("gate unreachable") }
		},
		"new member refuses the dial": func(live string) func() (FleetRoster, error) {
			return func() (FleetRoster, error) {
				return fixedRoster{epoch: 2, addrs: []string{live, refusing}}, nil
			}
		},
	}
	for name, fetchFor := range cases {
		t.Run(name, func(t *testing.T) {
			tb := mustTestbench(t, 61)
			_, srv := newServedSink(t, tb, 1, WithEpoch(1))
			live := srv.Addr().String()
			fe, err := Connect(tb.Engine, 1, "stranded",
				WithFleetMap(fixedRoster{epoch: 1, addrs: []string{live}}),
				WithRosterFetch(fetchFor(live)), WithFrameBatch(64))
			if err != nil {
				t.Fatal(err)
			}
			fe.patience = 50 * time.Millisecond

			// 10 packets < the 64-packet frame: they wait in the routing
			// buffer, owned by the exporter.
			if err := fe.Send(tb.FlowBatch(1, 0, 10, nil, nil)); err != nil {
				t.Fatal(err)
			}
			srv.SetEpoch(2)
			for deadline := time.Now().Add(10 * time.Second); !fe.RerouteRequested(); {
				if time.Now().After(deadline) {
					t.Fatal("the fence's nudge never reached the exporter")
				}
				time.Sleep(time.Millisecond)
			}

			// Enough packets to fill a frame: at the parent commit this
			// Send called into a nil session.
			failed := fe.Send(tb.FlowBatch(1, 1, 100, nil, nil))
			if failed == nil {
				t.Fatal("Send reported success across a failed rehome")
			}
			for op, err := range map[string]error{
				"Send":  fe.Send(tb.FlowBatch(1, 2, 100, nil, nil)),
				"Flush": fe.Flush(),
				"Poke":  fe.Poke(),
				"Close": fe.Close(),
			} {
				if !errors.Is(err, failed) {
					t.Errorf("%s after the failed rehome returned %v, want the rehome's failure %v", op, err, failed)
				}
			}
			if got := srv.Stats().Packets; got != 0 {
				t.Fatalf("collector ingested %d packets; the exporter never delivered any", got)
			}
		})
	}
}

// TestEpochMoveBetweenAckAndRegistrationStillNudges: SetEpoch walks the
// registered sessions, so one that lands after a session's handshake was
// acked at the old epoch but before the session is registered finds nobody
// to nudge; the handler has to catch up once it registers. The server logs
// "session open" exactly in that gap, so the log hook is where the test
// moves the epoch — deterministically inside the window.
func TestEpochMoveBetweenAckAndRegistrationStillNudges(t *testing.T) {
	tb := mustTestbench(t, 67)
	var srvp atomic.Pointer[Server]
	moved := make(chan struct{}, 1)
	_, srv := newServedSink(t, tb, 1, WithEpoch(1), WithLogf(func(format string, _ ...any) {
		if s := srvp.Load(); s != nil && s.Epoch() == 1 && strings.Contains(format, "session open") {
			s.SetEpoch(2)
			moved <- struct{}{}
		}
	}))
	srvp.Store(srv)
	live := srv.Addr().String()
	fe, err := Connect(tb.Engine, 1, "early",
		WithFleetMap(fixedRoster{epoch: 1, addrs: []string{live}}),
		WithRosterFetch(func() (FleetRoster, error) {
			return fixedRoster{epoch: 2, addrs: []string{live}}, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() }) // a failed run must not leave the server waiting on the session
	select {
	case <-moved:
	case <-time.After(5 * time.Second):
		t.Fatal("the server never logged the session open")
	}
	for deadline := time.Now().Add(5 * time.Second); !fe.RerouteRequested(); {
		if time.Now().After(deadline) {
			t.Fatal("a session acked just before the epoch moved was never nudged")
		}
		time.Sleep(time.Millisecond)
	}
	if err := fe.Poke(); err != nil {
		t.Fatalf("rehome after the nudge: %v", err)
	}
	if got := fe.roster.FleetEpoch(); got != 2 {
		t.Fatalf("exporter at epoch %d after the rehome, want 2", got)
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
}
