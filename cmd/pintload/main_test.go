package main

import (
	"net"
	"testing"
	"time"
)

// TestFleetMapFetchTimesOut: a gate that accepts the connection and never
// answers must cost the fetch its timeout, not hang it — the rerouting
// exporter checks its own deadline only between fetches.
func TestFleetMapFetchTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hung := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			hung <- conn // held open, never written to
		}
	}()
	defer func() {
		select {
		case conn := <-hung:
			conn.Close()
		default:
		}
	}()

	fetch := fleetMapFetch(ln.Addr().String(), 100*time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := fetch()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("fetch from a silent gate reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fetch from a silent gate is still waiting 10s after its 100ms timeout")
	}
}
